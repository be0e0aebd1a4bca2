package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"bigtiny/internal/apps"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for p, want := range map[float64]float64{5: 15, 30: 20, 40: 20, 50: 35, 100: 50} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 90, true}, {999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		p, ok := highestPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("highestPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if beyond(100, 90) != 10 || beyond(99, 90) != 9 {
		t.Errorf("beyond: %d %d", beyond(100, 90), beyond(99, 90))
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "cell", Parent: -1, Start: ms(0), End: ms(10)},
		{Name: "construct", Parent: 0, Start: ms(2), End: ms(5)},
		{Name: "simulate", Parent: 0, Start: ms(6), End: ms(7)},
		{Name: "alloc", Parent: 1, Start: ms(2), End: ms(3)},
		// A child on another track runs beside its parent, not inside it.
		{Name: "request", Parent: 0, Track: 1, Start: ms(0), End: ms(9)},
	}
	self, count := selfTimes(spans)
	want := map[string]time.Duration{"cell": ms(6), "construct": ms(2), "simulate": ms(1), "alloc": ms(1), "request": ms(9)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if count["cell"] != 1 || count["request"] != 1 {
		t.Errorf("counts %v", count)
	}
	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 {
		t.Errorf("nil recorder began span %d", id)
	}
	nilRec.end(-1)
}

func TestSeedGivesJobOrder(t *testing.T) {
	reqs := func(seed uint64) string {
		var b strings.Builder
		for _, tu := range serveTuples(seed, []string{"cilk5-cs", "ligra-bfs"}) {
			data, err := json.Marshal(tu.req)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		return b.String()
	}
	if reqs(7) != reqs(7) {
		t.Error("same seed, different job order")
	}
	if reqs(7) == reqs(8) {
		t.Error("different seeds, same jobs")
	}
	if n := len(serveTuples(1, []string{"cilk5-cs"})); n != 11+12 {
		t.Errorf("%d jobs for one app, want 23", n)
	}

	cells := func(seed uint64) []string {
		inst, err := table3Workload("t", "", apps.Unit, apps.Unit, []string{"cilk5-cs"}, false).setup(seed, testEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, w := range inst.(*table3).cells {
			out = append(out, w.Cfg+"|"+w.App)
		}
		return out
	}
	a, b, c := cells(3), cells(3), cells(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different cell order")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same cell order")
	}
	sort.Strings(a)
	sort.Strings(c)
	if !reflect.DeepEqual(a, c) {
		t.Error("the seed changed the set of cells, not only their order")
	}
}

func testEnv(t *testing.T) env {
	return env{nproc: 2, tmpDir: t.TempDir(), refFile: "../docs/results-ref.txt", log: io.Discard}
}

func testSpec(t *testing.T) *benchSpec {
	spec, err := readSpecFrom("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestCompareVerdicts(t *testing.T) {
	side := func(vals ...float64) sample {
		s := sample{values: vals}
		s.q1, s.med, s.q3 = quartiles(vals)
		return s
	}
	base := side(100, 101, 99, 100, 102, 98)
	for _, c := range []struct {
		name   string
		b      sample
		better string
		want   string
	}{
		{"same", side(100, 102, 99, 101, 100, 98), "lower", "ok"},
		{"slower within bound", side(105, 106, 104, 105, 107, 103), "lower", "ok"},
		{"slower beyond bound", side(115, 116, 114, 115, 117, 113), "lower", "regressed"},
		{"lower is worse when higher is better", side(85, 86, 84, 85, 87, 83), "higher", "regressed"},
		{"faster", side(80, 81, 79, 80, 82, 78), "lower", "ok"},
		{"wide and overlapping", side(80, 130, 95, 120, 70, 110), "lower", "unresolved"},
		{"wide but every run better", side(40, 80, 50, 70, 45, 60), "lower", "ok"},
	} {
		if _, got := verdict(base, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	spec := testSpec(t)
	run := func(trace int, wall float64, fired float64) runResult {
		r := runResult{Workload: "ref-serial", Seed: 1, Trace: trace, Values: map[string]float64{}, Timings: map[string]summary{}}
		if trace == 0 {
			for _, d := range spec.EndToEnd {
				r.Values[d.Name] = wall
				r.Timings[d.Name] = summary{Median: wall, Q1: wall * 0.99, Q3: wall * 1.01, N: 3}
			}
		} else {
			r.Values["sim.fired"] = fired
			r.Values["sim.handoff_ns"] = wall // a host time may differ freely
		}
		return r
	}
	a := &resultFile{Runs: []runResult{run(0, 10, 0), run(1, 200, 5000)}}
	same := &resultFile{Runs: []runResult{run(0, 10.1, 0), run(1, 250, 5000)}}
	moved := &resultFile{Runs: []runResult{run(0, 10.1, 0), run(1, 250, 5001)}}
	one := *spec
	one.Workloads = one.Workloads[:1]
	var out bytes.Buffer
	if bad := compareFiles(&out, &one, a, same); bad != 0 {
		t.Errorf("A/A compare: %d not ok\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareFiles(&out, &one, a, moved); bad != 1 || !strings.Contains(out.String(), "count differs: ref-serial seed 1 sim.fired") {
		t.Errorf("moved count: %d not ok\n%s", bad, out.String())
	}
}

func TestReferenceRows(t *testing.T) {
	rows, err := referenceRows("../docs/results-ref.txt", []string{"cilk5-cs", "ligra-bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !strings.HasPrefix(rows[0], "cilk5-cs ") || !strings.HasPrefix(rows[1], "ligra-bfs ") {
		t.Errorf("rows %q", rows)
	}
	if _, err := appRows("Name\ncilk5-cs x\n", []string{"ligra-tc"}); err == nil {
		t.Error("a missing row was not reported")
	}
}

// TestWorkloadsSmoke runs every workload once at reduced size — the
// set-up, two timed passes, the traced pass — and the layer drivers
// with short loops, then holds what they measured against
// BENCHMARK.json: every metric the file lists is measured somewhere,
// and nothing is measured under a name the file does not list.
func TestWorkloadsSmoke(t *testing.T) {
	spec := testSpec(t)
	small := []workload{
		table3Workload("ref-serial", "", apps.Unit, apps.Unit, []string{"cilk5-cs", "ligra-bfs"}, false),
		table3Workload("unit-construct", "", apps.Unit, apps.Unit, []string{"cilk5-mt"}, false),
		serveMixSized([]string{"cilk5-cs"}, 3),
		openChaosSized(96, 32),
	}
	full := workloads()
	if len(full) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(full), len(spec.Workloads))
	}
	for i, w := range full {
		if w.name != spec.Workloads[i].Name || w.why != spec.Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json says %q (%q)", i, w.name, w.why, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if w.name != small[i].name {
			t.Errorf("smoke workload %d is %q, want %q", i, small[i].name, w.name)
		}
	}

	// The two host readings are taken in runOne; the two serve tails are
	// quoted only with ten samples beyond them, more than the smoke sends.
	measuredLayer := map[string]bool{
		"host.calib_ns": true, "host.peak_rss_mb": true,
		"serve.warm_p99_us": true, "serve.cold_p90_ms": true,
	}
	for _, w := range small {
		e := testEnv(t)
		inst, err := w.setup(5, e)
		if err != nil {
			t.Fatalf("%s: set-up: %v", w.name, err)
		}
		m, err := measure(inst, 0, e.log)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(m.passes) != 2 || m.attempted == 0 || m.failed != 0 {
			t.Errorf("%s: %d passes, %d attempted, %d failed", w.name, len(m.passes), m.attempted, m.failed)
		}
		got := m.endToEnd()
		got["setup_s"] = summary{}
		for _, d := range spec.EndToEnd {
			s, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s is not measured", w.name, d.Name)
			} else if d.Name != "setup_s" && !(s.Median > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, s.Median)
			}
			delete(got, d.Name)
		}
		for name := range got {
			t.Errorf("%s: measures %s, which BENCHMARK.json does not list", w.name, name)
		}

		rec := newRecorder()
		lm, passes, err := inst.traced(rec)
		if err != nil {
			t.Fatalf("%s: traced pass: %v", w.name, err)
		}
		if passes < 2 || len(rec.spans) == 0 {
			t.Errorf("%s: traced pass did %v passes and recorded %d spans", w.name, passes, len(rec.spans))
		}
		for _, s := range rec.spans {
			if s.End < s.Start {
				t.Errorf("%s: span %s was never closed", w.name, s.Name)
			}
		}
		for name := range lm {
			measuredLayer[name] = true
		}
		for name := range spanMetrics(rec.spans, lm, &runtime.MemStats{}, &runtime.MemStats{}, passes) {
			measuredLayer[name] = true
		}
	}
	if rss, err := peakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peak rss %v %v", rss, err)
	}

	lm, err := layerDrivers(5, t.TempDir(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range lm {
		measuredLayer[name] = true
		if name != "sim.event_allocs" && !(v > 0) {
			t.Errorf("driver metric %s = %v, want > 0", name, v)
		}
	}
	listed := map[string]bool{}
	for _, d := range spec.PerLayer {
		listed[d.Name] = true
		if !measuredLayer[d.Name] {
			t.Errorf("per-layer metric %s of BENCHMARK.json is measured nowhere", d.Name)
		}
	}
	for name := range measuredLayer {
		if !listed[name] {
			t.Errorf("per-layer metric %s is measured but BENCHMARK.json does not list it", name)
		}
	}
}
