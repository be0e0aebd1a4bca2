package bench

import (
	"strings"
	"testing"
)

// plotTrajectory builds a small in-memory trajectory: one suite with a
// two-point series and a one-point series, plus a second suite, so the
// renderer exercises multi-entry polylines, single-point charts, and
// suite ordering in one pass.
func plotTrajectory() *TrajectoryFile {
	entry := func(id string, ms int64, benches ...TrajectoryBench) TrajectoryEntry {
		return TrajectoryEntry{
			Commit:  BenchCommit{ID: id, Message: "m", Timestamp: "t"},
			Date:    ms,
			Tool:    "customSmallerIsBetter",
			Benches: benches,
		}
	}
	return &TrajectoryFile{
		LastUpdate: 2000,
		Entries: map[string][]TrajectoryEntry{
			"zeta suite": {
				entry("cccccccccccccccc", 1500, TrajectoryBench{Name: "gate:kernel:ns_per_event", Value: 101.5, Unit: "ns/event"}),
			},
			"alpha suite": {
				entry("aaaaaaaaaaaaaaaa", 1000,
					TrajectoryBench{Name: "table3 serial wall", Value: 100, Unit: "s"},
					TrajectoryBench{Name: "table3 k4 par wall", Value: 140, Unit: "s"}),
				entry("bbbbbbbbbbbbbbbb", 2000,
					TrajectoryBench{Name: "table3 serial wall", Value: 90, Unit: "s"}),
			},
		},
	}
}

// TestRenderTrajectoryHTML pins the renderer's contract: every series
// gets a chart, multi-point series get a polyline, the page carries no
// scripts or external references, and rendering is deterministic.
func TestRenderTrajectoryHTML(t *testing.T) {
	traj := plotTrajectory()
	var b strings.Builder
	if err := RenderTrajectoryHTML(&b, traj, "BENCH.json"); err != nil {
		t.Fatal(err)
	}
	page := b.String()

	for _, want := range []string{
		"<!DOCTYPE html>",
		"alpha suite", "zeta suite",
		"table3 serial wall", "table3 k4 par wall", "gate:kernel:ns_per_event",
		"<svg", "<polyline", // the two-point series must draw a line
		"aaaaaaaaaaaa", // short commit id in a tooltip
		"ns/event",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
	// Self-contained: no scripts, no external fetches of any kind.
	for _, banned := range []string{"<script", "http://", "https://", "src=", "@import"} {
		if strings.Contains(page, banned) {
			t.Errorf("page is not self-contained: found %q", banned)
		}
	}
	// Suites render sorted, regardless of map iteration order.
	if strings.Index(page, "alpha suite") > strings.Index(page, "zeta suite") {
		t.Error("suites not sorted")
	}
	// One chart per series: three series, three <svg> blocks.
	if got := strings.Count(page, "<svg"); got != 3 {
		t.Errorf("%d charts, want 3", got)
	}

	var b2 strings.Builder
	if err := RenderTrajectoryHTML(&b2, traj, "BENCH.json"); err != nil {
		t.Fatal(err)
	}
	if b2.String() != page {
		t.Error("rendering is not deterministic")
	}
}

// TestRenderTrajectoryHTMLEmpty: an empty trajectory renders a valid
// page with a pointer at `paperbench trajectory`, not a panic or a
// blank.
func TestRenderTrajectoryHTMLEmpty(t *testing.T) {
	var b strings.Builder
	traj := &TrajectoryFile{Entries: map[string][]TrajectoryEntry{}}
	if err := RenderTrajectoryHTML(&b, traj, "BENCH.json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "paperbench trajectory") {
		t.Error("empty trajectory page missing the how-to-populate hint")
	}
}
