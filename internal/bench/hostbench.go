package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/atomicio"
	"bigtiny/internal/sim"
)

// This file is the host-performance measurement rig behind `paperbench
// bench` (and `make bench`). It measures how fast the simulator runs
// on the host — simulated cycles per host second, kernel events per
// second, host allocations per event — and writes the numbers to a
// BENCH_*.json file so the repo carries a perf trajectory from PR to
// PR. Simulated results are bit-identical no matter how fast the host
// path is; this rig only watches the host side.

// KernelBench is the kernel microbenchmark: a single proc scheduling
// and firing events through a ~1k-deep queue (the BenchmarkSchedule
// shape from internal/sim, run without the testing harness so
// paperbench can embed it).
type KernelBench struct {
	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// SuiteBench is the end-to-end measurement: the full table3 simulation
// worklist run serially (the -j1 paperbench table3 workload).
type SuiteBench struct {
	WallSec         float64 `json:"wall_sec"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	EventsFired     uint64  `json:"events_fired"`
	EventsPerSec    float64 `json:"events_per_sec"`
	FastWaits       uint64  `json:"fast_waits"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
}

// HostBenchReport is one measurement of the current binary.
type HostBenchReport struct {
	Date         string      `json:"date"`
	GoVersion    string      `json:"go_version"`
	HostCPUs     int         `json:"host_cpus"`
	Size         string      `json:"size"`
	Kernel       KernelBench `json:"kernel"`
	Table3Serial SuiteBench  `json:"table3_serial"`
}

// BenchFile is the on-disk BENCH_*.json format: the baseline
// measurement taken before a perf PR, the measurement after it, and
// the derived ratios. `paperbench bench` preserves an existing
// "before" section and rewrites "after", so re-running `make bench`
// refreshes the current numbers without losing the baseline.
type BenchFile struct {
	Before *HostBenchReport `json:"before,omitempty"`
	After  *HostBenchReport `json:"after"`
	// Speedup ratios (before/after wall, before/after allocs-per-event),
	// present when both sections are.
	Table3WallSpeedup         float64 `json:"table3_wall_speedup,omitempty"`
	KernelAllocsPerEventRatio float64 `json:"kernel_allocs_per_event_ratio,omitempty"`
}

// benchKernel runs the kernel microbenchmark: n schedule+fire pairs
// against a queue pre-filled to depth, measuring wall time and host
// allocations around the run.
func benchKernel(n int) KernelBench {
	k := sim.NewKernel()
	const depth = 1024
	fn := func() {}
	for i := 0; i < depth; i++ {
		k.At(sim.Time(i+1), fn)
	}
	fired := 0
	cb := func() { fired++ }
	k.NewProc("driver", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			k.At(k.Now()+depth, cb)
			p.Delay(1)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := k.Run(nil); err != nil {
		panic(err) // a broken microbenchmark is a simulator bug
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	events := k.Fired()
	return KernelBench{
		Events:         events,
		NsPerEvent:     float64(wall.Nanoseconds()) / float64(events),
		EventsPerSec:   float64(events) / wall.Seconds(),
		AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(events),
	}
}

// benchSuite runs the table3 simulation worklist strictly serially
// (the `paperbench -j 1 table3` workload) on a fresh suite and
// measures host throughput; only wall time and allocation counts vary
// by host. hook is the suite's SimHook (test injection; nil outside
// the gate tests), and a fresh suite per call means repeated
// iterations re-simulate instead of reading a warm cache.
func benchSuite(size apps.Size, names []string, hook func(cfgName, appName string), progress io.Writer) (SuiteBench, error) {
	s := NewSuite(size)
	s.Progress = progress
	s.SimHook = hook
	work := s.Table3Work(names)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var simCycles uint64
	seen := make(map[string]bool, len(work))
	for _, w := range work {
		if k := w.key(); seen[k] {
			continue
		} else {
			seen[k] = true
		}
		sub := s.at(w.Size, w.Grain)
		if w.View {
			if _, err := sub.View(w.App); err != nil {
				return SuiteBench{}, err
			}
			continue
		}
		r, err := sub.Run(w.Cfg, w.App)
		if err != nil {
			return SuiteBench{}, err
		}
		simCycles += uint64(r.Cycles)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	_, fired, fastWaits := s.HostCounters()
	b := SuiteBench{
		WallSec:     wall.Seconds(),
		SimCycles:   simCycles,
		EventsFired: fired,
		FastWaits:   fastWaits,
	}
	if secs := wall.Seconds(); secs > 0 {
		b.SimCyclesPerSec = float64(simCycles) / secs
		b.EventsPerSec = float64(fired) / secs
	}
	if fired > 0 {
		b.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fired)
	}
	return b, nil
}

// cellSample is one iteration's measurement of a single gated
// (config, app, size, grain) cell.
type cellSample struct {
	WallSec   float64
	SimCycles uint64
}

// benchCell measures one simulation of app on cfg at size/grain. Each
// call builds a fresh suite, so repeated iterations genuinely
// re-simulate — the gate's variance estimate would be meaningless over
// cache hits. Simulated cycles are deterministic; only the wall time
// varies by host.
func benchCell(size apps.Size, grain int, cfg, app string, hook func(cfgName, appName string), progress io.Writer) (cellSample, error) {
	s := NewSuite(size)
	s.Grain = grain
	s.Progress = progress
	s.SimHook = hook
	t0 := time.Now()
	r, err := s.Run(cfg, app)
	if err != nil {
		return cellSample{}, err
	}
	return cellSample{WallSec: time.Since(t0).Seconds(), SimCycles: uint64(r.Cycles)}, nil
}

// mergeBenchFile folds a fresh measurement into the BENCH file at
// outPath: an existing "before" baseline section is preserved, "after"
// and the derived ratios are rewritten, and the write is atomic so a
// crash cannot leave a truncated file. A read failure other than
// not-exist is an error — silently treating, say, a transient
// permission failure as "no file yet" would discard the baseline on
// the next write.
func mergeBenchFile(outPath string, rep *HostBenchReport) (*BenchFile, error) {
	var file BenchFile
	if data, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return nil, fmt.Errorf("bench: existing %s is not a BENCH file: %w", outPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("bench: reading %s: %w", outPath, err)
	}
	file.After = rep
	file.Table3WallSpeedup = 0
	file.KernelAllocsPerEventRatio = 0
	if file.Before != nil {
		if rep.Table3Serial.WallSec > 0 {
			file.Table3WallSpeedup = file.Before.Table3Serial.WallSec / rep.Table3Serial.WallSec
		}
		// Floor the denominator: an (effectively) allocation-free kernel
		// would make the ratio infinite, which JSON cannot carry.
		denom := rep.Kernel.AllocsPerEvent
		if denom < 1e-3 {
			denom = 1e-3
		}
		file.KernelAllocsPerEventRatio = file.Before.Kernel.AllocsPerEvent / denom
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicio.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return &file, nil
}

// hostSeriesLowerIsBetter gives the improvement direction of each
// host-throughput trajectory series (trajectoryBenches names).
var hostSeriesLowerIsBetter = map[string]bool{
	"kernel ns/event":       true,
	"kernel allocs/event":   true,
	"table3 serial wall":    true,
	"table3 sim-cycles/sec": false,
	"table3 events/sec":     false,
	"table3 allocs/event":   true,
}

// benchHintThreshold is the relative slip past which `paperbench
// bench` warns that bench-check would likely flag the measurement.
const benchHintThreshold = 0.10

// benchHint compares a fresh report against the newest host-throughput
// trajectory entry and returns a one-line heads-up naming every series
// that slipped more than benchHintThreshold in its worse direction
// ("" when none did). It is a point comparison — only the full
// bench-check gate re-measures with confidence intervals — so it is
// worded as a hint, not a verdict.
func benchHint(traj *TrajectoryFile, rep *HostBenchReport) string {
	entries := traj.Entries[trajectorySuite]
	if len(entries) == 0 {
		return ""
	}
	prev := map[string]float64{}
	for _, b := range entries[len(entries)-1].Benches {
		prev[b.Name] = b.Value
	}
	var slipped []string
	for _, b := range trajectoryBenches(rep) {
		base, ok := prev[b.Name]
		if !ok || base <= 0 {
			continue
		}
		delta := (b.Value - base) / base
		if !hostSeriesLowerIsBetter[b.Name] {
			delta = -delta
		}
		if delta > benchHintThreshold {
			slipped = append(slipped, fmt.Sprintf("%s %+.1f%%", b.Name, 100*(b.Value-base)/base))
		}
	}
	if len(slipped) == 0 {
		return ""
	}
	return fmt.Sprintf("hint: %s worsened >%.0f%% vs the last trajectory entry — a gated run may fail; see `paperbench bench-check`\n",
		strings.Join(slipped, ", "), 100*benchHintThreshold)
}

// HostBench measures the current binary (kernel microbenchmark plus
// the serial table3 workload at size), merges the result into the
// BENCH file at outPath — preserving any existing "before" baseline —
// and prints a summary to w. When historyPath is non-empty
// the same measurement is also appended as a per-commit entry to the
// cumulative trajectory file there (see AppendTrajectory), after a
// one-line hint if the new numbers slipped enough that the regression
// gate would likely flag them.
func HostBench(w io.Writer, size apps.Size, names []string, outPath, historyPath string, commit BenchCommit, progress io.Writer) error {
	rep := &HostBenchReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		HostCPUs:  runtime.NumCPU(),
		Size:      size.String(),
	}
	rep.Kernel = benchKernel(2_000_000)
	var err error
	rep.Table3Serial, err = benchSuite(size, names, nil, progress)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}

	file, err := mergeBenchFile(outPath, rep)
	if err != nil {
		return err
	}
	if historyPath != "" {
		traj, err := LoadTrajectory(historyPath)
		if err != nil {
			return err
		}
		if hint := benchHint(traj, rep); hint != "" {
			fmt.Fprint(w, hint)
		}
		if err := AppendTrajectory(historyPath, rep, commit, time.Now()); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "kernel:  %.0f events/s, %.1f ns/event, %.3f allocs/event\n",
		rep.Kernel.EventsPerSec, rep.Kernel.NsPerEvent, rep.Kernel.AllocsPerEvent)
	fmt.Fprintf(w, "table3 (serial, size=%s): %.1fs wall, %.2fM sim-cycles/s, %.2fM events/s, %.3f allocs/event\n",
		size, rep.Table3Serial.WallSec,
		rep.Table3Serial.SimCyclesPerSec/1e6, rep.Table3Serial.EventsPerSec/1e6,
		rep.Table3Serial.AllocsPerEvent)
	if file.Before != nil {
		fmt.Fprintf(w, "vs baseline: %.2fx table3 wall, %.1fx fewer kernel allocs/event\n",
			file.Table3WallSpeedup, file.KernelAllocsPerEventRatio)
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	if historyPath != "" {
		fmt.Fprintf(w, "appended trajectory entry to %s\n", historyPath)
	}
	return nil
}
