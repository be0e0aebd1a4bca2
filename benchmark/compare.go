package main

import (
	"fmt"
	"io"
	"sort"
)

// exactUnits mark the per-layer metrics that are deterministic: counts
// the program makes and simulated time. Two runs of one workload under
// one seed must agree on them exactly.
var exactUnits = map[string]bool{"count": true, "cycles": true, "count/count": true, "cycles/op": true}

// sample is one side's reading of one end-to-end metric on one
// workload: the per-run values, their median, and the quartiles —
// across runs when there are at least four (with three, the quartiles
// would be the lowest and the highest run), else the median of the
// runs' own pass-to-pass quartiles.
type sample struct {
	values      []float64
	med, q1, q3 float64
}

func collect(f *resultFile, workload, metric string) sample {
	var s sample
	var q1s, q3s []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		v, ok := r.Values[metric]
		if !ok {
			continue
		}
		s.values = append(s.values, v)
		if t, ok := r.Timings[metric]; ok {
			q1s, q3s = append(q1s, t.Q1), append(q3s, t.Q3)
		} else {
			q1s, q3s = append(q1s, v), append(q3s, v)
		}
	}
	s.q1, s.med, s.q3 = quartiles(s.values)
	if len(s.values) < 4 {
		s.q1, s.q3 = median(q1s), median(q3s)
	}
	return s
}

// verdict judges side b against side a for a metric with the given
// direction and bound. delta is how much worse b's median is, as a
// share of a's. When either side's spread is wider than the bound the
// metric is unresolved, unless the two sides do not overlap at all.
func verdict(a, b sample, better string, bound float64) (delta float64, v string) {
	worse := func(x, y float64) bool { // x worse than y
		if better == "higher" {
			return x < y
		}
		return x > y
	}
	delta = (b.med - a.med) / a.med
	if better == "higher" {
		delta = -delta
	}
	spread := (a.q3 - a.q1) / a.med
	if s := (b.q3 - b.q1) / a.med; s > spread {
		spread = s
	}
	allWorse, allBetter := true, true
	for _, x := range b.values {
		for _, y := range a.values {
			if !worse(x, y) {
				allWorse = false
			}
			if !worse(y, x) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allWorse && !allBetter:
		return delta, "unresolved"
	case delta > bound:
		return delta, "regressed"
	}
	return delta, "ok"
}

// compareMain prints, per end-to-end metric, one row per workload with
// both medians and quartiles, the delta against the bound and the
// verdict; then every deterministic metric on which two runs of the
// same workload and seed differ. It fails unless every row is ok and
// no count differs.
func compareMain(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare A.json B.json")
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	bad := compareFiles(w, spec, a, b)
	if bad > 0 {
		return fmt.Errorf("%d comparisons are not ok", bad)
	}
	return nil
}

func compareFiles(w io.Writer, spec *benchSpec, a, b *resultFile) (bad int) {
	for _, d := range spec.EndToEnd {
		fmt.Fprintf(w, "%s (%s, %s is better, bound %.0f %%)\n", d.Name, d.Unit, d.Better, 100*d.Bound)
		for _, wl := range spec.Workloads {
			sa, sb := collect(a, wl.Name, d.Name), collect(b, wl.Name, d.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				fmt.Fprintf(w, "  %-16s missing on one side\n", wl.Name)
				bad++
				continue
			}
			delta, v := verdict(sa, sb, d.Better, d.Bound)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(w, "  %-16s A %12.4f [%.4f, %.4f] n=%d   B %12.4f [%.4f, %.4f] n=%d   worse by %+6.2f %%   %s\n",
				wl.Name, sa.med, sa.q1, sa.q3, len(sa.values), sb.med, sb.q1, sb.q3, len(sb.values), 100*delta, v)
		}
	}

	type key struct {
		workload string
		seed     uint64
	}
	traced := func(f *resultFile) map[key]runResult {
		m := map[key]runResult{}
		for _, r := range f.Runs {
			if r.Trace == 1 {
				m[key{r.Workload, r.Seed}] = r
			}
		}
		return m
	}
	ta, tb := traced(a), traced(b)
	keys := make([]key, 0, len(ta))
	for k := range ta {
		if _, ok := tb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	differ := 0
	for _, k := range keys {
		for _, d := range spec.PerLayer {
			if !exactUnits[d.Unit] {
				continue
			}
			if va, vb := ta[k].Values[d.Name], tb[k].Values[d.Name]; va != vb {
				fmt.Fprintf(w, "count differs: %s seed %d %s: A %v B %v\n", k.workload, k.seed, d.Name, va, vb)
				differ++
			}
		}
	}
	fmt.Fprintf(w, "counts: %d traced runs paired by workload and seed, %d deterministic metrics differ\n", len(keys), differ)
	return bad + differ
}
