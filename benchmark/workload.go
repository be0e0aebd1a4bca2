package main

import (
	"fmt"
	"io"
	"reflect"
	"time"
)

// A workload is one set of inputs the benchmark runs. setup builds its
// inputs from the seed, computes the reference outputs its passes are
// checked against, and runs the untimed warm-up; the instance it
// returns then runs timed passes and, separately, one traced pass.
type workload struct {
	name  string
	why   string
	setup func(seed uint64, env env) (instance, error)
}

// env is what a workload needs from the process around it.
type env struct {
	nproc   int    // client goroutines / simulation workers, at most
	tmpDir  string // scratch space inside the checkout
	refFile string // the repo's rendered reference tables
	log     io.Writer
}

type instance interface {
	// pass runs the workload once with spans going to rec (nil: off).
	pass(rec *recorder) (*passResult, error)
	// traced runs the traced part of a -trace 1 run and returns the
	// workload's count metrics and how many passes' worth of work it
	// did (allocation totals are reported per pass).
	traced(rec *recorder) (lm layerMetrics, passes float64, err error)
}

// passResult is what one pass (one cycle, for serve-mix) yields.
type passResult struct {
	wall float64 // host seconds, whole pass

	// coldMs are the latencies of the operations that simulated; cycles
	// is the simulated time they covered and simWall the host seconds
	// they were simulated in (the whole pass, or serve-mix's cold phase).
	coldMs  []float64
	cycles  uint64
	simWall float64

	// jobs completed in jobsWall host seconds (the whole pass, or
	// serve-mix's warm phase).
	jobs     int
	jobsWall float64

	// warmUs are serve-mix's store-hit latencies (nil elsewhere).
	warmUs []float64

	attempted, failed int

	// counts are the pass's deterministic counters; every pass of one
	// run must repeat them exactly.
	counts map[string]uint64
}

// check counts one correctness check as an operation; a failed one is
// logged and counted in failed.
func (p *passResult) check(log io.Writer, ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		fmt.Fprintf(log, "FAIL: "+format+"\n", args...)
	}
}

// measured is the outcome of the timed, untraced passes of one run.
type measured struct {
	passes            []*passResult
	attempted, failed int
}

// measure runs timed passes for about the given number of seconds: a
// new pass starts while at least half of it still fits, and there are
// never fewer than two. Every pass must repeat the first one's counts.
func measure(inst instance, seconds float64, log io.Writer) (*measured, error) {
	m := &measured{}
	start := time.Now()
	for {
		if n := len(m.passes); n >= 2 {
			last := m.passes[n-1].wall
			if time.Since(start).Seconds()+last/2 > seconds {
				break
			}
		}
		p, err := inst.pass(nil)
		if err != nil {
			return nil, err
		}
		if len(m.passes) > 0 {
			first := m.passes[0].counts
			p.check(log, reflect.DeepEqual(first, p.counts),
				"pass %d counts differ from pass 0: %v vs %v", len(m.passes), p.counts, first)
		}
		m.passes = append(m.passes, p)
		m.attempted += p.attempted
		m.failed += p.failed
	}
	return m, nil
}

// perPass maps every pass to one number.
func (m *measured) perPass(f func(*passResult) float64) []float64 {
	out := make([]float64, len(m.passes))
	for i, p := range m.passes {
		out[i] = f(p)
	}
	return out
}

// endToEnd computes the end-to-end timing metrics, each the median
// over passes with its quartiles and sample count.
func (m *measured) endToEnd() map[string]summary {
	return map[string]summary{
		"wall_s": summarize(m.perPass(func(p *passResult) float64 { return p.wall })),
		"sim_cycles_per_s": summarize(m.perPass(func(p *passResult) float64 {
			return float64(p.cycles) / p.simWall
		})),
		"job_cold_p50_ms": m.coldP50(),
		"jobs_per_s": summarize(m.perPass(func(p *passResult) float64 {
			return float64(p.jobs) / p.jobsWall
		})),
	}
}

// coldP50 is the median cold job. Every pass runs the same jobs in the
// same order, so each job's latency is first taken as its median over
// the passes (one disturbed pass does not move it), and the metric is
// the nearest-rank p50 over jobs. The quartiles beside it are those of
// the passes' own p50s.
func (m *measured) coldP50() summary {
	meds := make([]float64, len(m.passes[0].coldMs))
	for j := range meds {
		meds[j] = median(m.perPass(func(p *passResult) float64 { return p.coldMs[j] }))
	}
	s := summarize(m.perPass(func(p *passResult) float64 { return percentile(p.coldMs, 50) }))
	s.Median = percentile(meds, 50)
	return s
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerMetrics are per-layer values by metric name.
type layerMetrics map[string]float64

func (l layerMetrics) merge(other layerMetrics) {
	for k, v := range other {
		l[k] = v
	}
}
