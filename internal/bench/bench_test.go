package bench

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/openload"
	"bigtiny/internal/stats"
)

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(apps.Test)
	r1, err := s.Run("bT/HCC-gwb", "cilk5-mt")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("bT/HCC-gwb", "cilk5-mt")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second Run did not return the cached result")
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	s := NewSuite(apps.Test)
	if _, err := s.Run("no-such-config", "cilk5-cs"); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := s.Run("bT/MESI", "no-such-app"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSerialBaselineUsesOneCore(t *testing.T) {
	s := NewSuite(apps.Test)
	r, err := s.Run("IOx1", "cilk5-mt")
	if err != nil {
		t.Fatal(err)
	}
	if r.RT.Spawns != 0 {
		t.Fatalf("serial baseline spawned %d tasks", r.RT.Spawns)
	}
	if r.BigBreakdown[0]+r.BigBreakdown[1] != 0 && r.TinyTotalCycles() == 0 {
		t.Fatal("serial-IO baseline ran on a big core")
	}
}

func TestTable3SmokeSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	var sb strings.Builder
	if err := s.Table3(&sb, []string{"cilk5-mt", "ligra-bfs"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table III", "cilk5-mt", "ligra-bfs", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable4KeyClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// The paper's central Table IV claim: DTS sharply reduces
	// invalidations on all protocols. Check it holds for one app at
	// test size.
	s := NewSuite(apps.Test)
	for _, p := range []string{"dnv", "gwt", "gwb"} {
		hcc, err := s.Run("bT/HCC-"+p, "cilk5-cs")
		if err != nil {
			t.Fatal(err)
		}
		dts, err := s.Run("bT/HCC-DTS-"+p, "cilk5-cs")
		if err != nil {
			t.Fatal(err)
		}
		if dts.L1Tiny.InvLines*2 >= hcc.L1Tiny.InvLines {
			t.Errorf("%s: DTS inv lines %d not well below HCC %d",
				p, dts.L1Tiny.InvLines, hcc.L1Tiny.InvLines)
		}
	}
}

func TestFig4GranularityTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Fine grain must give more logical parallelism than coarse (the
	// left side of the paper's Fig. 4 trade-off).
	fine := NewSuite(apps.Test)
	fine.Grain = 2
	coarse := NewSuite(apps.Test)
	coarse.Grain = 64
	vf, err := fine.View("ligra-tc")
	if err != nil {
		t.Fatal(err)
	}
	vc, err := coarse.View("ligra-tc")
	if err != nil {
		t.Fatal(err)
	}
	if vf.Parallelism() <= vc.Parallelism() {
		t.Fatalf("parallelism: grain2=%.1f <= grain64=%.1f", vf.Parallelism(), vc.Parallelism())
	}
}

// TestOffGrainCellsKeepSuiteSettings: cells at a grain other than the
// suite's own (Fig. 4's sweep) run under the suite's settings, here the
// oracle, like every other cell.
func TestOffGrainCellsKeepSuiteSettings(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := &Suite{Env: openload.Options{Oracle: true}}
	work := s.Cells(Targets["fig4"], nil)
	if err := s.Prewarm(work, 0); err != nil {
		t.Fatal(err)
	}
	for _, w := range work {
		if w.Cfg != "tiny64" {
			continue
		}
		r, err := memo[*stats.Run](context.Background(), s, w)
		if err != nil {
			t.Fatal(err)
		}
		if r.OracleOps == 0 {
			t.Errorf("tiny64 at grain %d ran without the oracle", w.Grain)
		}
	}
}

func TestULIReportOnlyForDTS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	r, err := s.Run("bT/HCC-gwb", "cilk5-mt")
	if err != nil {
		t.Fatal(err)
	}
	if r.ULI != nil {
		t.Error("non-DTS run has ULI stats")
	}
	r, err = s.Run("bT/HCC-DTS-gwb", "cilk5-mt")
	if err != nil {
		t.Fatal(err)
	}
	if r.ULI == nil {
		t.Error("DTS run missing ULI stats")
	}
}

func TestEnergyReportRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	if err := s.EnergyReport(io.Discard, []string{"cilk5-mt"}); err != nil {
		t.Fatal(err)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{0, -1}); g != 0 {
		t.Fatalf("geomean of non-positives = %v", g)
	}
}

func TestAppNamesComplete(t *testing.T) {
	names := AppNames()
	if len(names) != 13 {
		t.Fatalf("%d apps, want 13", len(names))
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	if _, err := s.Run("bT/HCC-DTS-gwb", "cilk5-mt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("bT/MESI", "cilk5-mt"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var runs []RunJSON
	if err := json.Unmarshal([]byte(sb.String()), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs exported, want 2", len(runs))
	}
	for _, r := range runs {
		if r.Cycles == 0 || r.App != "cilk5-mt" {
			t.Fatalf("bad run record: %+v", r)
		}
		if len(r.TrafficBytes) != 9 {
			t.Fatalf("traffic categories = %d, want 9", len(r.TrafficBytes))
		}
	}
	// The DTS run must carry ULI fields; the MESI run must not.
	var sawULI bool
	for _, r := range runs {
		if r.Config == "bT/HCC-DTS-gwb" && r.ULIReqs > 0 {
			sawULI = true
		}
		if r.Config == "bT/MESI" && r.ULIReqs != 0 {
			t.Fatal("MESI run has ULI stats")
		}
	}
	if !sawULI {
		t.Fatal("DTS run missing ULI stats")
	}
}
