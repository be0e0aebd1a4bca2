package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"bigtiny/internal/atomicio"
)

// This file maintains the repo's benchmark trajectory, BENCH.json: one
// entry per (host, commit), in the shape the benchmark-action ecosystem
// renders, with one suite per host. Entries come from the result files
// `go run ./benchmark -out` writes: ImportResults pools their untraced
// runs by host and commit, and each pool becomes one entry holding the
// median of every end-to-end metric BENCHMARK.json lists, per workload.
//
// The file is the repo's whole perf history, so every write goes
// through atomicio: a crash mid-append leaves the previous trajectory
// intact, never a truncated JSON. An import is all or nothing: every
// result file is read and checked before the one write.

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

// SuiteEntry is one entry and the suite it belongs to.
type SuiteEntry struct {
	Suite string
	Entry TrajectoryEntry
}

// BenchSpec is what an import needs of BENCHMARK.json: the workloads,
// and the end-to-end metrics with their units.
type BenchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
}

// LoadBenchSpec reads BENCHMARK.json at path.
func LoadBenchSpec(path string) (*BenchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: run from the root of the repo: %w", err)
	}
	var s BenchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("bench: %s lists no workloads or no end-to-end metrics", path)
	}
	return &s, nil
}

// benchRun is the part of one run in a benchmark result file that an
// import reads.
type benchRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Host     struct {
		NProc    int    `json:"nproc"`
		CPUModel string `json:"cpu_model"`
		Commit   string `json:"commit"`
	} `json:"host"`
	Values map[string]float64 `json:"values"`
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

// ImportResults pools the untraced runs of the benchmark result files by
// host (CPU model and count) and commit, and appends one entry per pool
// to the trajectory at historyPath. An entry has one series per
// workload and end-to-end metric of spec, named "<workload>/<metric>":
// the median of the pool's values, which is the number
// `go run ./benchmark -compare` prints. A file that cannot be read,
// holds no untraced run, or has a run that is not complete and positive
// fails the whole import, and the trajectory is left untouched.
func ImportResults(historyPath string, spec *BenchSpec, files []string, now time.Time) ([]SuiteEntry, error) {
	type poolKey struct{ suite, commit string }
	var order []poolKey
	pools := map[poolKey][]benchRun{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		runs, err := parseResults(spec, data)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		for _, r := range runs {
			k := poolKey{fmt.Sprintf("benchmark on %s, nproc %d", r.Host.CPUModel, r.Host.NProc), r.Host.Commit}
			if _, ok := pools[k]; !ok {
				order = append(order, k)
			}
			pools[k] = append(pools[k], r)
		}
	}

	adds := make([]SuiteEntry, 0, len(order))
	for _, k := range order {
		runs := pools[k]
		var benches []TrajectoryBench
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				var vs []float64
				for _, r := range runs {
					if r.Workload == w.Name {
						vs = append(vs, r.Values[m.Name])
					}
				}
				if len(vs) == 0 {
					return nil, fmt.Errorf("bench: %s at commit %q has no run of workload %s", k.suite, k.commit, w.Name)
				}
				benches = append(benches, TrajectoryBench{Name: w.Name + "/" + m.Name, Value: median(vs), Unit: m.Unit})
			}
		}
		adds = append(adds, SuiteEntry{Suite: k.suite, Entry: TrajectoryEntry{
			Commit:  BenchCommit{ID: k.commit, Message: fmt.Sprintf("%d untraced runs of go run ./benchmark", len(runs))},
			Date:    now.UnixMilli(),
			Tool:    "go",
			Benches: benches,
		}})
	}
	if err := appendEntries(historyPath, adds, now); err != nil {
		return nil, err
	}
	return adds, nil
}

// parseResults returns the untraced runs of one result file, checked
// against spec: a known workload, a host, and every end-to-end metric
// present and positive (JSON has no NaN or infinity).
func parseResults(spec *BenchSpec, data []byte) ([]benchRun, error) {
	var file struct {
		Runs []benchRun `json:"runs"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, w := range spec.Workloads {
		known[w.Name] = true
	}
	var runs []benchRun
	for i, r := range file.Runs {
		if r.Trace != 0 {
			continue
		}
		switch {
		case !known[r.Workload]:
			return nil, fmt.Errorf("run %d: unknown workload %q", i, r.Workload)
		case r.Host.NProc <= 0 || r.Host.CPUModel == "":
			return nil, fmt.Errorf("run %d: no host cpu_model and nproc", i)
		}
		for _, m := range spec.EndToEnd {
			v, ok := r.Values[m.Name]
			if !ok || v <= 0 {
				return nil, fmt.Errorf("run %d (%s): %s is missing or not a positive number", i, r.Workload, m.Name)
			}
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no untraced (trace 0) runs")
	}
	return runs, nil
}

// median is the middle value, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dedupableCommit reports whether a commit ID identifies one specific
// commit. The benchmark stamps runs taken outside a git checkout with
// "unknown"; replacing on that ID would collapse every unattributed
// import into one entry, silently discarding history, so such entries
// always append.
func dedupableCommit(id string) bool {
	return id != "" && id != "unknown"
}

// appendEntries adds each entry to its suite's series in the trajectory
// at path, creating the file if needed. An entry for a (dedupable)
// commit the suite already holds replaces it rather than duplicating
// it, so re-importing a commit's results does not stutter the series.
// The write is atomic: a crash leaves the old file intact.
func appendEntries(path string, adds []SuiteEntry, now time.Time) error {
	file, err := LoadTrajectory(path)
	if err != nil {
		return err
	}
	if file.RepoURL == "" {
		file.RepoURL = "local"
	}
	for _, a := range adds {
		series := file.Entries[a.Suite]
		replaced := false
		if dedupableCommit(a.Entry.Commit.ID) {
			for i := range series {
				if series[i].Commit.ID == a.Entry.Commit.ID {
					series[i] = a.Entry
					replaced = true
					break
				}
			}
		}
		if !replaced {
			series = append(series, a.Entry)
		}
		file.Entries[a.Suite] = series
	}
	file.LastUpdate = now.UnixMilli()

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}
