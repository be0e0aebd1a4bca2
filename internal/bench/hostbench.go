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
// worklist run serially (the -j1 paperbench table3 workload), on a
// serial or shard-decomposed event kernel. SimCycles is identical at
// any shard count — only the host-side numbers may move.
type SuiteBench struct {
	Shards int `json:"shards,omitempty"`
	// ShardExec records the shard executor the pass ran ("parallel" for
	// the epoch-parallel worker pool; empty for merged/serial). On a
	// single-core host the parallel numbers measure executor overhead,
	// not speedup — the point of carrying them is exactly that honesty.
	ShardExec       string  `json:"shard_exec,omitempty"`
	WallSec         float64 `json:"wall_sec"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	EventsFired     uint64  `json:"events_fired"`
	EventsPerSec    float64 `json:"events_per_sec"`
	FastWaits       uint64  `json:"fast_waits"`
	AllocsPerEvent  float64 `json:"allocs_per_event"`
	// Shard-decomposition accounting (sharded runs only). The average
	// concurrency is the mean number of distinct shards firing per
	// lookahead epoch — the ceiling an epoch-parallel executor could
	// extract from this worklist.
	CrossShardPosts uint64  `json:"cross_shard_posts,omitempty"`
	ShardViolations uint64  `json:"shard_violations,omitempty"`
	AvgConcurrency  float64 `json:"avg_shard_concurrency,omitempty"`
	WallVsSerial    float64 `json:"wall_speedup_vs_serial,omitempty"`
	// Parallel-executor accounting (ShardExec == "parallel" only): token
	// handoffs into the worker pool, callbacks run inline on the worker
	// already holding the token, cross-shard posts deferred through
	// outboxes, and epoch-barrier flushes.
	ExecHandoffs uint64 `json:"exec_handoffs,omitempty"`
	ExecInline   uint64 `json:"exec_inline,omitempty"`
	ExecOutboxed uint64 `json:"exec_outboxed,omitempty"`
	ExecFlushes  uint64 `json:"exec_flushes,omitempty"`
}

// HostBenchReport is one measurement of the current binary.
type HostBenchReport struct {
	Date         string      `json:"date"`
	GoVersion    string      `json:"go_version"`
	HostCPUs     int         `json:"host_cpus"`
	Size         string      `json:"size"`
	Kernel       KernelBench `json:"kernel"`
	Table3Serial SuiteBench  `json:"table3_serial"`
	// Table3Sharded re-measures the same worklist on a K-way sharded
	// kernel, one entry per swept K (DefaultShardSweep unless the caller
	// chose otherwise). SimCycles must equal the serial run's.
	Table3Sharded []SuiteBench `json:"table3_sharded,omitempty"`
}

// DefaultShardSweep is the shard counts `paperbench bench` measures the
// table3 worklist at, alongside the serial pass.
var DefaultShardSweep = []int{2, 4, 8}

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
// (the `paperbench -j 1 table3` workload) on a fresh suite, with the
// event kernel split into shards conservative-lookahead shards (<= 1
// serial) under the given shard executor, and measures host
// throughput. Simulated results are the usual bit-identical ones at
// any shard count and either executor; only wall time and allocation
// counts vary by host. hook is the suite's SimHook (test injection;
// nil outside the gate tests), and a fresh suite per call means
// repeated iterations re-simulate instead of reading a warm cache.
func benchSuite(size apps.Size, names []string, shards int, exec sim.ExecMode, hook func(cfgName, appName string), progress io.Writer) (SuiteBench, error) {
	s := NewSuite(size)
	s.Progress = progress
	s.SimHook = hook
	s.Shards = shards
	s.ShardExec = exec
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
	if shards > 1 {
		o := s.ShardObs()
		b.Shards = shards
		b.CrossShardPosts = o.CrossPosts
		b.ShardViolations = o.Violations
		b.AvgConcurrency = o.AvgConcurrency()
		if exec == sim.ExecParallel {
			eo := s.ExecObs()
			b.ShardExec = exec.String()
			b.ExecHandoffs = eo.Handoffs
			b.ExecInline = eo.Inline
			b.ExecOutboxed = eo.Outboxed
			b.ExecFlushes = eo.Flushes
		}
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
func benchCell(size apps.Size, grain, shards int, exec sim.ExecMode, cfg, app string, hook func(cfgName, appName string), progress io.Writer) (cellSample, error) {
	s := NewSuite(size)
	s.Grain = grain
	s.Progress = progress
	s.SimHook = hook
	s.Shards = shards
	s.ShardExec = exec
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
// static host-throughput trajectory series (trajectoryBenches names);
// hostSeriesLower resolves the per-shard-count series too.
var hostSeriesLowerIsBetter = map[string]bool{
	"kernel ns/event":       true,
	"kernel allocs/event":   true,
	"table3 serial wall":    true,
	"table3 sim-cycles/sec": false,
	"table3 events/sec":     false,
	"table3 allocs/event":   true,
}

// hostSeriesLower resolves a trajectory series' improvement direction,
// including the dynamic per-shard-count names ("table3 k4 wall",
// "table3 k4 sim-cycles/sec").
func hostSeriesLower(name string) bool {
	if lower, ok := hostSeriesLowerIsBetter[name]; ok {
		return lower
	}
	return strings.HasSuffix(name, " wall")
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
		if !hostSeriesLower(b.Name) {
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
// the serial table3 workload at size, then the same worklist at each
// shard count in shardSweep — nil skips the sweep), merges the result
// into the BENCH file at outPath — preserving any existing "before"
// baseline — and prints a summary to w. When historyPath is non-empty
// the same measurement is also appended as a per-commit entry to the
// cumulative trajectory file there (see AppendTrajectory), after a
// one-line hint if the new numbers slipped enough that the regression
// gate would likely flag them.
func HostBench(w io.Writer, size apps.Size, names []string, shardSweep []int, outPath, historyPath string, commit BenchCommit, progress io.Writer) error {
	rep := &HostBenchReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		HostCPUs:  runtime.NumCPU(),
		Size:      size.String(),
	}
	rep.Kernel = benchKernel(2_000_000)
	var err error
	rep.Table3Serial, err = benchSuite(size, names, 1, sim.ExecMerged, nil, progress)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	// Sweep each shard count through both executors: the merged
	// single-token loop, then the epoch-parallel worker pool. On a
	// single-core host the parallel column measures pure executor
	// overhead — the honest number the trajectory exists to carry.
	for _, exec := range []sim.ExecMode{sim.ExecMerged, sim.ExecParallel} {
		for _, k := range shardSweep {
			if k <= 1 {
				continue
			}
			b, err := benchSuite(size, names, k, exec, nil, progress)
			if err != nil {
				return fmt.Errorf("bench: shards=%d exec=%v: %w", k, exec, err)
			}
			// The decomposition promise, enforced at measurement time: a
			// sharded pass that drifts from the serial simulation (or posts
			// an event inside the lookahead window) is a simulator bug, not
			// a perf data point.
			if b.SimCycles != rep.Table3Serial.SimCycles {
				return fmt.Errorf("bench: shards=%d exec=%v simulated %d cycles, serial %d — sharding changed the simulation",
					k, exec, b.SimCycles, rep.Table3Serial.SimCycles)
			}
			if b.ShardViolations != 0 {
				return fmt.Errorf("bench: shards=%d exec=%v: %d lookahead violations", k, exec, b.ShardViolations)
			}
			if b.WallSec > 0 {
				b.WallVsSerial = rep.Table3Serial.WallSec / b.WallSec
			}
			rep.Table3Sharded = append(rep.Table3Sharded, b)
		}
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
	for _, b := range rep.Table3Sharded {
		tag := ""
		if b.ShardExec != "" {
			tag = ", exec=" + b.ShardExec
		}
		fmt.Fprintf(w, "table3 (shards=%d%s): %.1fs wall (%.2fx vs serial), %.2fM sim-cycles/s, avg shard concurrency %.2f\n",
			b.Shards, tag, b.WallSec, b.WallVsSerial, b.SimCyclesPerSec/1e6, b.AvgConcurrency)
	}
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
