// Command benchmark is the repo's one benchmark: four workloads that
// put the work in different layers of the simulator and its service,
// end-to-end metrics from untraced passes, and per-layer metrics from
// layer drivers plus one traced pass. See README.md in this directory.
//
//	go run ./benchmark -workload NAME -seed N -seconds S -trace 0|1   one run
//	go run ./benchmark -seed N [-out FILE]                            every workload, both modes
//	go run ./benchmark -compare A.json B.json                         verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
)

// setupReps is how often a run sets its workload up; setup_s is the
// median, so one slow first time (lazy initialisation, a cold page
// cache) does not decide it.
const setupReps = 5

func workloads() []workload {
	return []workload{
		table3Workload("ref-serial",
			"the north-star run: 22 ref-size cells one at a time, nearly all host time inside the kernel, cache and cpu models",
			apps.Ref, apps.Test, []string{"cilk5-cs", "ligra-bfs"}, true),
		table3Workload("unit-construct",
			"143 tiny cells: machine construction and app set-up dominate, steady-state simulation does little",
			apps.Unit, apps.Unit, bench.AppNames(), false),
		serveMixWorkload(),
		openChaosWorkload(),
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload (default: every workload, in child processes)")
		seed    = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 20, "how long the timed passes of one run measure")
		trace   = flag.Int("trace", 0, "0: untraced passes, end-to-end metrics; 1: layer drivers and a traced pass, per-layer metrics")
		out     = flag.String("out", "", "append the runs to this result file (for -compare)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareMain(os.Stdout, flag.Args())
	case *name == "":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runResult is one run as the result file keeps it. The last line of a
// run's standard output is its contract form: correct, attempted,
// failed and the metrics of the mode.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Host      hostMeta           `json:"host"`
	Noisy     bool               `json:"noisy"`
	CalibNs   [2]float64         `json:"calib_ns"` // before, after
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Timings   map[string]summary `json:"timings,omitempty"` // end-to-end medians with quartiles
	Values    map[string]float64 `json:"values"`            // every metric of the mode by name
}

// contractLine is the final stdout line of one run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed uint64, seconds float64, trace int, out string) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == name {
			c := c
			w = &c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	log := os.Stdout
	res := runResult{Workload: name, Seed: seed, Trace: trace, Host: readHostMeta(), Values: map[string]float64{}}
	fmt.Fprintf(log, "workload %s  seed %d  trace %d  nproc %d  GOMAXPROCS %d  %s  %s  kernel %s  commit %s\n",
		name, seed, trace, res.Host.NProc, res.Host.GoMaxProcs, res.Host.GoVersion, res.Host.CPUModel, res.Host.Kernel, res.Host.Commit)
	res.CalibNs[0] = calibNs()

	e := env{nproc: runtime.NumCPU(), tmpDir: tmp, refFile: filepath.Join("docs", "results-ref.txt"), log: log}
	var inst instance
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if inst, err = w.setup(seed, e); err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	var units map[string]string
	if trace == 0 {
		units = spec.units(spec.EndToEnd)
		m, err := measure(inst, seconds, log)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Attempted, res.Failed = m.attempted, m.failed
		res.Timings = m.endToEnd()
		res.Timings["setup_s"] = summarize(setups)
		for k, s := range res.Timings {
			res.Values[k] = s.Median
		}
		reportEndToEnd(log, spec, m, res)
	} else {
		units = spec.units(spec.PerLayer)
		// A failure in the traced part ends the run with an error, so a
		// run that reports has failed nothing; its operations are spans.
		lm, spans, err := tracedRun(inst, name, seed, e)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Attempted = spans
		// A per-layer metric a workload has no part in reads 0 there.
		for _, d := range spec.PerLayer {
			res.Values[d.Name] = 0
		}
		for k, v := range lm {
			res.Values[k] = v
		}
	}
	res.CalibNs[1] = calibNs()
	res.Noisy = math.Abs(res.CalibNs[1]-res.CalibNs[0]) > 0.10*res.CalibNs[0]
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if trace == 1 {
		res.Values["host.calib_ns"], res.Values["host.peak_rss_mb"] = res.CalibNs[1], rss
		reportPerLayer(log, spec, res)
	}
	fmt.Fprintf(log, "host.calib_ns before %.4f after %.4f  noisy %v  host.peak_rss_mb %.1f\n", res.CalibNs[0], res.CalibNs[1], res.Noisy, rss)

	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for metric, unit := range units {
		v, ok := res.Values[metric]
		if !ok {
			return fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", name, metric)
		}
		line.Metrics[metric] = metricValue{Value: v, Unit: unit}
	}
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%s\n", data)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// reportEndToEnd prints every end-to-end metric by name with its unit,
// the quartiles and the sample count, and the cold-latency tail when
// there are samples enough to quote one.
func reportEndToEnd(w io.Writer, spec *benchSpec, m *measured, res runResult) {
	fmt.Fprintf(w, "end-to-end, %d untraced passes, %d operations, %d failed:\n", len(m.passes), res.Attempted, res.Failed)
	for _, d := range spec.EndToEnd {
		s := res.Timings[d.Name]
		fmt.Fprintf(w, "  %-20s %14.4f %-8s q1 %.4f  q3 %.4f  n %d\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
	}
	var cold []float64
	for _, p := range m.passes {
		cold = append(cold, p.coldMs...)
	}
	if p, ok := highestPercentile(len(cold)); ok {
		fmt.Fprintf(w, "  job_cold p%g %.4f ms over %d jobs\n", p, percentile(cold, p), len(cold))
	}
}

func reportPerLayer(w io.Writer, spec *benchSpec, res runResult) {
	fmt.Fprintln(w, "per-layer:")
	names := make([]string, 0, len(res.Values))
	for k := range res.Values {
		names = append(names, k)
	}
	sort.Strings(names)
	units := spec.units(spec.PerLayer)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %16.4f %s\n", k, res.Values[k], units[k])
	}
}
