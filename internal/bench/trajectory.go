package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"bigtiny/internal/atomicio"
)

// This file maintains the cumulative benchmark trajectory: where a
// BENCH_*.json carries one before/after pair for a single PR, the
// trajectory file (BENCH.json) appends one entry per commit, in the
// same shape the benchmark-action ecosystem renders, so the repo's
// host-performance history is a single growing series rather than a
// set of disconnected pairs. The trajectory is also where the
// regression gate (gate.go) finds its baselines: bench-check compares
// fresh measurements against the newest entry carrying each gated
// series, and -update-baseline blesses new values by appending one.
//
// The file is the repo's whole perf history, so every write goes
// through atomicio: a crash mid-append leaves the previous trajectory
// intact, never a truncated JSON.

// BenchCommit identifies the commit a trajectory entry measures.
type BenchCommit struct {
	ID        string `json:"id"`
	Message   string `json:"message"`
	Timestamp string `json:"timestamp"`
}

// TrajectoryBench is one named measurement inside an entry.
type TrajectoryBench struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// TrajectoryEntry is one commit's worth of measurements.
type TrajectoryEntry struct {
	Commit  BenchCommit       `json:"commit"`
	Date    int64             `json:"date"` // milliseconds since epoch
	Tool    string            `json:"tool"`
	Benches []TrajectoryBench `json:"benches"`
}

// TrajectoryFile is the on-disk BENCH.json format.
type TrajectoryFile struct {
	LastUpdate int64                        `json:"lastUpdate"`
	RepoURL    string                       `json:"repoUrl"`
	Entries    map[string][]TrajectoryEntry `json:"entries"`
}

// trajectorySuite is the series every paperbench bench run appends to;
// gateSuite carries the regression-gate baselines bench-check blesses.
const (
	trajectorySuite = "paperbench host throughput"
	gateSuite       = "paperbench regression gates"
)

// trajectoryBenches flattens a report into the named series. Names are
// stable across PRs — renaming one would fork its plotted history.
func trajectoryBenches(rep *HostBenchReport) []TrajectoryBench {
	return []TrajectoryBench{
		{Name: "kernel ns/event", Value: rep.Kernel.NsPerEvent, Unit: "ns/event"},
		{Name: "kernel allocs/event", Value: rep.Kernel.AllocsPerEvent, Unit: "allocs/event"},
		{Name: "table3 serial wall", Value: rep.Table3Serial.WallSec, Unit: "s"},
		{Name: "table3 sim-cycles/sec", Value: rep.Table3Serial.SimCyclesPerSec, Unit: "cycles/s"},
		{Name: "table3 events/sec", Value: rep.Table3Serial.EventsPerSec, Unit: "events/s"},
		{Name: "table3 allocs/event", Value: rep.Table3Serial.AllocsPerEvent, Unit: "allocs/event"},
	}
}

// LoadTrajectory reads the trajectory file at path. A missing file is
// an empty trajectory, not an error; a malformed one is an error (the
// perf history must never be silently clobbered).
func LoadTrajectory(path string) (*TrajectoryFile, error) {
	var file TrajectoryFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return nil, fmt.Errorf("bench: existing %s is not a trajectory file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("bench: reading %s: %w", path, err)
	}
	if file.Entries == nil {
		file.Entries = map[string][]TrajectoryEntry{}
	}
	return &file, nil
}

// Baseline returns the most recent recorded value of the named series,
// searching entries newest-first (suites in sorted order, so the
// answer is deterministic), plus the commit ID that recorded it. ok is
// false when no entry carries the series.
func (f *TrajectoryFile) Baseline(series string) (value float64, commit string, ok bool) {
	suites := make([]string, 0, len(f.Entries))
	for s := range f.Entries {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	for _, s := range suites {
		entries := f.Entries[s]
		for i := len(entries) - 1; i >= 0; i-- {
			for _, b := range entries[i].Benches {
				if b.Name == series {
					return b.Value, entries[i].Commit.ID, true
				}
			}
		}
	}
	return 0, "", false
}

// dedupableCommit reports whether a commit ID identifies one specific
// commit. The no-git fallback stamps entries with "unknown"; replacing
// on that ID would collapse every unattributed run into one entry,
// silently discarding history, so such entries always append.
func dedupableCommit(id string) bool {
	return id != "" && id != "unknown"
}

// appendEntry appends one entry to the named suite's series in the
// trajectory at path, creating the file if needed. Entries for the
// same (dedupable) commit ID are replaced rather than duplicated, so
// re-running `make bench` before committing does not stutter the
// series. The write is atomic: a crash leaves the old file intact.
func appendEntry(path, suite string, benches []TrajectoryBench, commit BenchCommit, now time.Time) error {
	file, err := LoadTrajectory(path)
	if err != nil {
		return err
	}
	if file.RepoURL == "" {
		file.RepoURL = "local"
	}

	entry := TrajectoryEntry{
		Commit:  commit,
		Date:    now.UnixMilli(),
		Tool:    "go",
		Benches: benches,
	}
	series := file.Entries[suite]
	replaced := false
	if dedupableCommit(commit.ID) {
		for i := range series {
			if series[i].Commit.ID == commit.ID {
				series[i] = entry
				replaced = true
				break
			}
		}
	}
	if !replaced {
		series = append(series, entry)
	}
	file.Entries[suite] = series
	file.LastUpdate = entry.Date

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}

// AppendTrajectory appends one host-throughput measurement of commit to
// the trajectory file at path.
func AppendTrajectory(path string, rep *HostBenchReport, commit BenchCommit, now time.Time) error {
	return appendEntry(path, trajectorySuite, trajectoryBenches(rep), commit, now)
}

// AppendGateBaselines appends (or, for a known commit, replaces) one
// entry of regression-gate baselines — this is how an intentional perf
// change is blessed: re-measure with bench-check -update-baseline and
// commit the refreshed trajectory.
func AppendGateBaselines(path string, benches []TrajectoryBench, commit BenchCommit, now time.Time) error {
	return appendEntry(path, gateSuite, benches, commit, now)
}
