// Package openload drives the simulated machine as an open system:
// requests arrive on a seeded stochastic schedule (independent of how
// fast the machine services them), each request spawns a small task
// DAG onto the work-stealing runtime, and per-request end-to-end
// latency is summarized by exact percentiles. A bounded in-simulation
// admission queue sheds arrivals under overload, so the machine
// degrades gracefully instead of building an unbounded backlog.
//
// Everything is deterministic: the same (config, spec, scenario, fault
// seed) produces bit-identical results regardless of host parallelism
// or repetition. The accounting identity
//
//	Arrived == Completed + Shed + InFlightAtEnd
//
// is asserted inside Run itself — a violation is an error, not a
// statistic — and holds under every fault scenario including
// chaos-lossy-all.
package openload

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
	"bigtiny/internal/wsrt"
)

// Spec describes one open-system experiment: what arrives, how fast,
// and how much concurrency the admission queue tolerates.
type Spec struct {
	// Workload names the per-request task DAG (Workloads lists them).
	Workload string
	// Arrival names the arrival process: "poisson" (memoryless),
	// "bursty" (two-state MMPP), or "diurnal" (sinusoidally modulated).
	Arrival string
	// RatePerK is the mean offered load in requests per 1000 cycles.
	RatePerK float64
	// Requests is the total number of arrivals.
	Requests int
	// Seed drives both the arrival schedule and per-request parameters.
	Seed uint64
	// MaxInFlight bounds admitted-but-unfinished requests; arrivals
	// beyond it are shed. 0 means 4x the machine's thread count.
	MaxInFlight int
	// Horizon, when nonzero, bounds the post-arrival drain (simulated
	// cycles): requests still unfinished at the horizon are counted as
	// InFlightAtEnd instead of being waited for.
	Horizon sim.Time
}

// Key returns the canonical cache/identity key for the spec.
func (sp Spec) Key() string {
	return fmt.Sprintf("%s|%s|%g|%d|%d|%d|%d",
		sp.Workload, sp.Arrival, sp.RatePerK, sp.Requests, sp.Seed,
		sp.MaxInFlight, sp.Horizon)
}

// Validate checks the spec against the workload/arrival registries and
// the numeric preconditions. Run calls it; so does the serving layer's
// upfront request validation.
func (sp Spec) Validate() error {
	if _, err := lookupWorkload(sp.Workload); err != nil {
		return err
	}
	found := false
	for _, a := range Arrivals() {
		if a == sp.Arrival {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("openload: unknown arrival process %q (have %s)",
			sp.Arrival, strings.Join(Arrivals(), ", "))
	}
	if sp.Requests <= 0 {
		return fmt.Errorf("openload: Requests must be positive (got %d)", sp.Requests)
	}
	if sp.RatePerK <= 0 {
		return fmt.Errorf("openload: RatePerK must be positive (got %g)", sp.RatePerK)
	}
	return nil
}

// Options carry the run environment around the spec: fault scenario,
// oracle shadowing, and the watchdog deadline. A closed-loop run has
// the same environment (bench.Suite.Env).
type Options struct {
	// Scenario, when non-empty, names a fault-injection scenario
	// (fault.Lookup) seeded with FaultSeed.
	Scenario  string
	FaultSeed uint64
	// Oracle shadows the run with the memory-ordering oracle.
	Oracle bool
	// Deadline, when nonzero, overrides the config's watchdog deadline.
	Deadline sim.Time
}

// Check validates the scenario name: the one check of a run's fault
// scenario, shared by every front end and applied again by Config.
func (opt Options) Check() error {
	_, err := opt.faults()
	return err
}

// faults returns the scenario to inject, nil for none.
func (opt Options) faults() (*fault.Scenario, error) {
	if opt.Scenario == "" {
		return nil, nil
	}
	sc, err := fault.Lookup(opt.Scenario)
	return &sc, err
}

// Seed is the fault seed the environment runs under: 0 without a
// scenario, and with one FaultSeed, where 0 means 1 (the CLIs'
// -fault-seed default). It is the one fault-seed rule: equal runs carry
// equal seeds in every key, report and export.
func (opt Options) Seed() uint64 {
	switch {
	case opt.Scenario == "":
		return 0
	case opt.FaultSeed == 0:
		return 1
	}
	return opt.FaultSeed
}

// Config returns the named machine configuration in this environment:
// the deadline override, the fault scenario with its seed, and the
// oracle. Run builds its machine from it, and so does a closed-loop run
// in the same environment (bench.Suite).
func (opt Options) Config(cfgName string) (machine.Config, error) {
	cfg, err := machine.Lookup(cfgName)
	if err != nil {
		return machine.Config{}, err
	}
	if opt.Deadline > 0 {
		cfg.Deadline = opt.Deadline
	}
	sc, err := opt.faults()
	if err != nil {
		return machine.Config{}, err
	}
	if sc != nil {
		cfg.Faults, cfg.FaultSeed = sc, opt.Seed()
	}
	cfg.Oracle = opt.Oracle
	return cfg, nil
}

// Result is the outcome of one open-system run.
type Result struct {
	Config    string
	Spec      Spec
	Scenario  string
	FaultSeed uint64

	// The accounting identity: Arrived == Completed + Shed + InFlightAtEnd.
	Arrived       int
	Completed     int
	Shed          int
	InFlightAtEnd int
	// Drained reports whether every admitted request finished (always
	// true when Horizon is 0).
	Drained bool

	// Cycles is the total simulated time, including the drain.
	Cycles sim.Time
	// Latency holds one sample per completed request: cycles from the
	// scheduled arrival (not admission) to completion, so queueing
	// delay under backlog is part of the number.
	Latency stats.Digest

	// OfferedPerKCycle is the realized offered load (arrivals per 1000
	// cycles over the arrival span); ThroughputPerKCycle is completions
	// per 1000 cycles over the whole run.
	OfferedPerKCycle    float64
	ThroughputPerKCycle float64

	FaultTotal uint64
	RT         wsrt.RunStats
	OracleOps  uint64
}

// Arrivals lists the supported arrival process names.
func Arrivals() []string { return []string{"poisson", "bursty", "diurnal"} }

// fidOpen tags request-task compute for the I-cache model.
const openFootprint = 1536

// Run executes one open-system experiment on the named configuration.
// ctx cancellation interrupts the simulation kernel mid-run.
func Run(ctx context.Context, cfgName string, sp Spec, opt Options) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	setup, err := lookupWorkload(sp.Workload)
	if err != nil {
		return nil, err
	}
	sched, err := schedule(sp)
	if err != nil {
		return nil, err
	}

	cfg, err := opt.Config(cfgName)
	if err != nil {
		return nil, err
	}
	m := machine.New(cfg)
	defer m.InterruptOn(ctx, "openload: "+sp.Workload+" on "+cfgName)()

	rt := wsrt.New(m, wsrt.AutoVariant(m))
	fid := rt.RegisterFunc("open:"+sp.Workload, openFootprint)
	inst := setup(rt, sp)

	maxInFlight := sp.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 4 * len(m.Cores)
	}

	// Per-request bookkeeping. Task bodies run on simulated cores, but
	// the kernel runs one of them at a time with a happens-before edge
	// at every switch, so plain Go variables are race-free.
	n := sp.Requests
	doneAt := make([]sim.Time, n)
	isDone := make([]bool, n)
	isShed := make([]bool, n)
	arrived, inflight := 0, 0
	drained := true

	root := func(c *wsrt.Ctx) {
		for i := 0; i < n; i++ {
			c.IdleUntil(sched[i])
			arrived++
			if inflight >= maxInFlight {
				isShed[i] = true
				continue
			}
			inflight++
			i := i
			c.SpawnAsync(fid, func(cc *wsrt.Ctx) {
				inst.body(cc, fid, i)
				doneAt[i] = cc.Now()
				isDone[i] = true
				inflight--
			})
		}
		if sp.Horizon > 0 {
			drained = c.WaitChildrenUntil(sp.Horizon)
		} else {
			c.WaitChildren()
		}
	}
	if err := rt.Run(root); err != nil {
		return nil, fmt.Errorf("openload: %s on %s: %w", sp.Workload, cfgName, err)
	}

	r := &Result{
		Config:    cfgName,
		Spec:      sp,
		Scenario:  opt.Scenario,
		FaultSeed: opt.Seed(),
		Drained:   drained,
		Cycles:    m.Kernel.Now(),
		RT:        rt.Stats,
	}
	for i := 0; i < n; i++ {
		switch {
		case isDone[i]:
			r.Completed++
			r.Latency.Add(uint64(doneAt[i] - sched[i]))
		case isShed[i]:
			r.Shed++
		}
	}
	r.Arrived = arrived
	r.InFlightAtEnd = inflight

	// The identity is a hard invariant, cross-checked three ways: the
	// arrival counter, the per-request flags, and the live in-flight
	// counter must tell the same story even after chaos.
	if r.Arrived != n {
		return nil, fmt.Errorf("openload: arrival loop processed %d of %d requests", r.Arrived, n)
	}
	if got := r.Completed + r.Shed + r.InFlightAtEnd; got != r.Arrived {
		return nil, fmt.Errorf(
			"openload: accounting identity violated: Arrived=%d but Completed=%d + Shed=%d + InFlightAtEnd=%d = %d",
			r.Arrived, r.Completed, r.Shed, r.InFlightAtEnd, got)
	}
	if r.Drained && r.InFlightAtEnd != 0 {
		return nil, fmt.Errorf("openload: drained run left %d requests in flight", r.InFlightAtEnd)
	}

	// Verify every completed request's answer against the natively
	// computed expectation, reading results out of simulated memory.
	var bad []string
	for i := 0; i < n; i++ {
		if !isDone[i] {
			continue
		}
		got := m.Cache.DebugReadWord(inst.resultAddr(i))
		if want := inst.expected(i); got != want {
			bad = append(bad, fmt.Sprintf("req %d: got %d want %d", i, got, want))
		}
	}
	if len(bad) > 0 {
		if len(bad) > 5 {
			bad = append(bad[:5], fmt.Sprintf("... and %d more", len(bad)-5))
		}
		return nil, fmt.Errorf("openload: %s on %s: wrong answers: %s",
			sp.Workload, cfgName, strings.Join(bad, "; "))
	}

	if span := sched[n-1]; span > 0 {
		r.OfferedPerKCycle = 1000 * float64(n) / float64(span)
	}
	if r.Cycles > 0 {
		r.ThroughputPerKCycle = 1000 * float64(r.Completed) / float64(r.Cycles)
	}
	if m.Faults != nil {
		r.FaultTotal = m.Faults.Total()
	}
	if m.Oracle != nil {
		r.OracleOps = m.Oracle.Ops
	}
	return r, nil
}

// schedule precomputes the full arrival timetable from the spec. The
// timetable depends only on (Arrival, RatePerK, Requests, Seed) — a
// shed request does not perturb later arrivals, which is what makes
// the process open-loop.
func schedule(sp Spec) ([]sim.Time, error) {
	rng := sim.NewRand(sp.Seed*0x9e3779b97f4a7c15 + 0x6c62272e07bb0142)
	meanGap := 1000 / sp.RatePerK
	out := make([]sim.Time, sp.Requests)
	t := sim.Time(0)
	switch sp.Arrival {
	case "poisson":
		for i := range out {
			t += expGap(rng, meanGap)
			out[i] = t
		}
	case "bursty":
		// Two-state MMPP: bursts arrive 3x the mean rate, lulls 0.4x,
		// with a 8% chance of switching state at each arrival.
		burst := true
		for i := range out {
			mult := 3.0
			if !burst {
				mult = 0.4
			}
			t += expGap(rng, meanGap/mult)
			out[i] = t
			if rng.Float64() < 0.08 {
				burst = !burst
			}
		}
	case "diurnal":
		// Sinusoidally modulated rate, two full periods over the
		// request sequence: peaks at 1.8x the mean, troughs at 0.2x.
		period := sp.Requests / 2
		if period < 8 {
			period = 8
		}
		for i := range out {
			mult := 1 + 0.8*math.Sin(2*math.Pi*float64(i)/float64(period))
			t += expGap(rng, meanGap/mult)
			out[i] = t
		}
	default:
		return nil, fmt.Errorf("openload: unknown arrival process %q (have %s)",
			sp.Arrival, strings.Join(Arrivals(), ", "))
	}
	return out, nil
}

// expGap draws an exponential inter-arrival gap with the given mean,
// floored at one cycle so the schedule is strictly increasing enough
// to be meaningful.
func expGap(rng *sim.Rand, mean float64) sim.Time {
	g := -mean * math.Log(1-rng.Float64())
	if g < 1 {
		g = 1
	}
	return sim.Time(g)
}

// Workloads lists the supported per-request workload names, sorted.
func Workloads() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
