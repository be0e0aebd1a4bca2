package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// replaySpans are the spans of one replayed cell; their self times add
// up to the cell's host time.
var replaySpans = []string{"lookup", "construct", "setup", "simulate", "verify", "collect"}

// tracedRun is the measuring part of a -trace 1 run: the layer
// drivers, then the workload's traced pass with spans kept in memory,
// then the span metrics, the self-time table and the Chrome trace.
func tracedRun(inst instance, name string, seed uint64, e env) (lm layerMetrics, attempted int, err error) {
	t0 := time.Now()
	if lm, err = layerDrivers(seed, e.tmpDir, 1); err != nil {
		return nil, 0, fmt.Errorf("layer drivers: %w", err)
	}
	fmt.Fprintf(e.log, "layer drivers took %.2f s\n", time.Since(t0).Seconds())

	rec := newRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wm, passes, err := inst.traced(rec)
	if err != nil {
		return nil, 0, err
	}
	runtime.ReadMemStats(&m1)
	lm.merge(wm)
	lm.merge(spanMetrics(rec.spans, lm, &m0, &m1, passes))

	writeSelfTable(e.log, name, rec.spans)
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := writeChromeTrace(path, rec.spans); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(e.log, "chrome trace: %s\n", path)
	return lm, len(rec.spans), nil
}

// spanMetrics derives the per-layer metrics that come from span self
// times and from the Go runtime's counters around the traced part
// (m0 before, m1 after, covering the given number of passes). lm
// carries the counts and driver results they are related to.
func spanMetrics(spans []span, lm layerMetrics, m0, m1 *runtime.MemStats, passes float64) layerMetrics {
	self, count := selfTimes(spans)
	var cellTime time.Duration
	for _, n := range replaySpans {
		cellTime += self[n]
	}
	steps := lm["sim.fired"] + lm["sim.fastwaits"]
	out := layerMetrics{
		"sim.simulate_s":          (self["simulate"] + self["openload.run"]).Seconds(),
		"sim.host_ns_per_step":    ratio(float64(self["simulate"].Nanoseconds()), steps),
		"machine.construct_s":     self["construct"].Seconds(),
		"machine.construct_share": ratio(self["construct"].Seconds(), cellTime.Seconds()),
		"apps.setup_s":            self["setup"].Seconds(),
		"apps.verify_s":           self["verify"].Seconds(),
		"bench.collect_us":        ratio(float64(self["collect"].Nanoseconds())/1e3, float64(count["collect"])),
		"go.alloc_mb_per_pass":    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / passes,
		"go.allocs_per_step":      ratio(float64(m1.Mallocs-m0.Mallocs)/passes, steps),
		"go.num_gc":               float64(m1.NumGC),
		"go.gc_cpu_fraction":      m1.GCCPUFraction,
		"go.gomaxprocs":           float64(runtime.GOMAXPROCS(0)),
	}
	if warm, ok := lm["serve.warm_p50_us"]; ok {
		out["serve.warm_overhead_us"] = warm - lm["store.get_us"]
	}
	return out
}
