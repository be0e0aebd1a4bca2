package main

import (
	"context"
	"fmt"
	"time"

	"bigtiny/internal/openload"
)

// openCell is one open-system run: a configuration at an offered rate,
// fault-free with the oracle off or under chaos with the oracle on.
type openCell struct {
	cfg   string
	spec  openload.Spec
	chaos bool
}

const chaosScenario = "chaos-lossy-all"

func (c openCell) options(faults, oracle bool, seed uint64) openload.Options {
	opt := openload.Options{Oracle: oracle}
	if faults {
		opt.Scenario, opt.FaultSeed = chaosScenario, seed
	}
	return opt
}

// openChaos runs the cells serially through openload.Run. The
// simulated system is open-loop; the host loop is closed.
type openChaos struct {
	env   env
	seed  uint64
	cells []openCell
}

var openChaosConfigs = []string{"bT8/MESI", "bT8/HCC-gwb", "bT8/HCC-DTS-gwb"}

func openChaosCells(seed uint64, requests int) []openCell {
	var cells []openCell
	for _, cfg := range openChaosConfigs {
		for _, rate := range []float64{0.5, 1} {
			for _, chaos := range []bool{false, true} {
				cells = append(cells, openCell{cfg: cfg, chaos: chaos, spec: openload.Spec{
					Workload: "rmat-query", Arrival: "poisson", RatePerK: rate, Requests: requests, Seed: seed,
				}})
			}
		}
	}
	return cells
}

func openChaosWorkload() workload {
	return openChaosSized(4096, 512)
}

// openChaosSized is the workload with the given request count per cell
// and a warm-up pass of warmRequests.
func openChaosSized(requests, warmRequests int) workload {
	return workload{
		name: "open-chaos",
		why:  "the same kernel used differently: 8-core machines, cancellable steal timers, fault draws at every site, an oracle lookup per memory operation",
		setup: func(seed uint64, e env) (instance, error) {
			warm := &openChaos{env: e, seed: seed, cells: openChaosCells(seed, warmRequests)}
			p, err := warm.pass(nil)
			if err != nil {
				return nil, err
			}
			if p.failed > 0 {
				return nil, fmt.Errorf("open-chaos: warm-up pass failed %d of %d operations", p.failed, p.attempted)
			}
			return &openChaos{env: e, seed: seed, cells: openChaosCells(seed, requests)}, nil
		},
	}
}

// run is one openload.Run with the accounting identity checked.
func (o *openChaos) run(p *passResult, c openCell, opt openload.Options) (*openload.Result, time.Duration) {
	t0 := time.Now()
	r, err := openload.Run(context.Background(), c.cfg, c.spec, opt)
	d := time.Since(t0)
	p.check(o.env.log, err == nil, "open %s rate %g %s: %v", c.cfg, c.spec.RatePerK, opt.Scenario, err)
	if err != nil {
		return nil, d
	}
	p.check(o.env.log, r.Arrived == r.Completed+r.Shed+r.InFlightAtEnd,
		"open %s rate %g: arrived %d != completed %d + shed %d + in flight %d",
		c.cfg, c.spec.RatePerK, r.Arrived, r.Completed, r.Shed, r.InFlightAtEnd)
	return r, d
}

func (o *openChaos) pass(rec *recorder) (*passResult, error) {
	p := &passResult{counts: map[string]uint64{}}
	root := rec.begin("pass", -1, 0)
	t0 := time.Now()
	for i, c := range o.cells {
		cell := rec.begin("cell", root, 0)
		id := rec.begin("openload.run", cell, 0)
		r, d := o.run(p, c, c.options(c.chaos, c.chaos, o.seed))
		rec.end(id)
		rec.end(cell)
		p.coldMs = append(p.coldMs, ms(d))
		if r == nil {
			continue
		}
		p.cycles += uint64(r.Cycles)
		p.counts["openload.completed"] += uint64(r.Completed)
		p.counts["openload.shed"] += uint64(r.Shed)
		p.counts["oracle.ops"] += r.OracleOps
		p.counts["fault.total"] += r.FaultTotal
		p.counts["wsrt.tasks"] += r.RT.Spawns
		p.counts["wsrt.steal_tries"] += r.RT.StealTries
		p.counts["wsrt.steal_hits"] += r.RT.StealHits
		// The latency digest is exact, so a cell's p50 and p99 are counts
		// too; keyed by cell, they must repeat like the rest.
		p.counts[fmt.Sprintf("p50_cycles.%d", i)] = r.Latency.P50()
		p.counts[fmt.Sprintf("p99_cycles.%d", i)] = r.Latency.P99()
	}
	p.wall = time.Since(t0).Seconds()
	rec.end(root)
	p.counts["sim_cycles"] = p.cycles
	p.simWall, p.jobs, p.jobsWall = p.wall, len(o.cells), p.wall
	return p, nil
}

// traced runs an untraced and a traced pass (their ratio is the tracing
// overhead), then the chaos cells three ways — plain, with faults, with
// faults and the oracle — so the fault hooks and the oracle each get an
// overhead ratio against the step below them. The oracle never moves a
// simulated cycle, so its ratio is plain host time; chaos sheds
// requests and loses a core, so the fault ratio is host time per
// completed request.
func (o *openChaos) traced(rec *recorder) (layerMetrics, float64, error) {
	plain, err := o.pass(nil)
	if err != nil {
		return nil, 0, err
	}
	tr, err := o.pass(rec)
	if err != nil {
		return nil, 0, err
	}
	if plain.failed+tr.failed > 0 {
		return nil, 0, fmt.Errorf("%d operations failed in the traced passes", plain.failed+tr.failed)
	}

	// host time and completed requests of each way, summed over cells
	type tally struct {
		host      time.Duration
		completed int
	}
	var noFaults, faults, faultsOracle tally
	var p50s, p99s []float64
	extra := &passResult{}
	root := rec.begin("overheads", -1, 0)
	for i, c := range o.cells {
		if !c.chaos {
			continue
		}
		for _, way := range []struct {
			name           string
			faults, oracle bool
			sum            *tally
		}{
			{"openload.run plain", false, false, &noFaults},
			{"openload.run +faults", true, false, &faults},
			{"openload.run +faults+oracle", true, true, &faultsOracle},
		} {
			id := rec.begin(way.name, root, 0)
			r, d := o.run(extra, c, c.options(way.faults, way.oracle, o.seed))
			rec.end(id)
			way.sum.host += d
			if r != nil {
				way.sum.completed += r.Completed
			}
		}
		p50s = append(p50s, float64(tr.counts[fmt.Sprintf("p50_cycles.%d", i)]))
		p99s = append(p99s, float64(tr.counts[fmt.Sprintf("p99_cycles.%d", i)]))
	}
	rec.end(root)
	if extra.failed > 0 {
		return nil, 0, fmt.Errorf("%d operations failed in the overhead runs", extra.failed)
	}
	return layerMetrics{
		"trace.overhead_ratio": tr.wall / plain.wall,
		"fault.overhead_ratio": ratio(faults.host.Seconds()/float64(faults.completed),
			noFaults.host.Seconds()/float64(noFaults.completed)),
		"oracle.overhead_ratio": faultsOracle.host.Seconds() / faults.host.Seconds(),
		"openload.completed":    float64(tr.counts["openload.completed"]),
		"openload.shed":         float64(tr.counts["openload.shed"]),
		"openload.p50_cycles":   median(p50s),
		"openload.p99_cycles":   median(p99s),
		"oracle.ops":            float64(tr.counts["oracle.ops"]),
		"fault.total":           float64(tr.counts["fault.total"]),
		"wsrt.tasks":            float64(tr.counts["wsrt.tasks"]),
		"wsrt.steal_tries":      float64(tr.counts["wsrt.steal_tries"]),
		"wsrt.steal_hit_ratio":  ratio(float64(tr.counts["wsrt.steal_hits"]), float64(tr.counts["wsrt.steal_tries"])),
	}, 2 + 1.5, nil // the chaos half of the cells, three more times
}
