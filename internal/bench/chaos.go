package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"bigtiny/internal/apps"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/uli"
	"bigtiny/internal/wsrt"
)

// ChaosConfig is the machine every chaos run uses: a small DTS system
// so each (app, scenario) pair exercises the full protocol stack (ULI,
// GPU-WB invalidate/flush discipline, NoC, DRAM) at test-input cost.
const ChaosConfig = "bT8/HCC-DTS-gwb"

// ChaosResult reports one chaos-invariance run.
type ChaosResult struct {
	App      string
	Scenario string
	Seed     uint64
	Cycles   sim.Time
	// Faults is the number of injected fault events; Summary breaks it
	// down per site.
	Faults  uint64
	Summary string
	// ULI is the fabric's protocol accounting (steal requests, drops,
	// timeouts, ...) and RT the runtime's recovery counters, for
	// invariant checks on lossy scenarios.
	ULI uli.Stats
	RT  wsrt.RunStats
	// OracleOps is how many memory operations the ordering oracle
	// checked (every chaos run shadows the caches with the oracle).
	OracleOps uint64
}

// RunChaos runs one app under a named fault scenario on ChaosConfig and
// checks the chaos invariants: the run finishes within its deadline,
// the output equals the serial reference, and (for non-empty scenarios)
// at least one fault was actually injected. Determinism is the caller's
// check: the same (app, scenario, seed) always yields the same Cycles.
func RunChaos(appName, scenarioName string, seed uint64) (*ChaosResult, error) {
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	sc, err := fault.Lookup(scenarioName)
	if err != nil {
		return nil, err
	}
	cfg, err := machine.Lookup(ChaosConfig)
	if err != nil {
		return nil, err
	}
	cfg.Faults = &sc
	cfg.FaultSeed = seed
	// Every chaos run shadows the caches with the memory-ordering oracle:
	// faults must never produce a load no legal per-location order allows.
	cfg.Oracle = true

	m := machine.New(cfg)
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = app.DefaultGrain
	inst := app.Setup(rt, apps.Test, 0)
	if err := rt.Run(inst.Root); err != nil {
		return nil, fmt.Errorf("chaos: %s under %s (seed %d): %w",
			appName, scenarioName, seed, err)
	}
	read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
	if err := inst.Verify(read); err != nil {
		return nil, fmt.Errorf("chaos: %s under %s (seed %d): output diverged from serial reference: %w",
			appName, scenarioName, seed, err)
	}
	res := &ChaosResult{
		App:       appName,
		Scenario:  scenarioName,
		Seed:      seed,
		Cycles:    m.Kernel.Now(),
		Faults:    m.Faults.Total(),
		Summary:   m.Faults.Summary(),
		ULI:       m.ULI.Stats,
		RT:        rt.Stats,
		OracleOps: m.Oracle.Ops,
	}
	if !sc.Zero() && res.Faults == 0 {
		return nil, fmt.Errorf("chaos: %s under %s (seed %d): scenario injected no faults",
			appName, scenarioName, seed)
	}
	return res, nil
}

// slowdownStr formats the cycle inflation of a chaos run over its
// fault-free baseline. Degenerate baselines (e.g. Empty-size inputs)
// can finish in zero cycles; a ratio is meaningless there, so it
// prints "n/a" instead of +Inf/NaN.
func slowdownStr(base, cycles sim.Time) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%8.2fx", float64(cycles)/float64(base))
}

// ChaosScenarios is the default scenario set for chaos sweeps: every
// scenario in the fault registry except the "none" baseline (Chaos
// already runs a per-app baseline itself), in registry order. Deriving
// the sweep from fault.Scenarios() keeps the registry the single source
// of truth — a newly registered scenario joins the sweep, the CLIs'
// -faults validation, and the service's /v1/scenarios endpoint at once,
// and a rename cannot leave a stale name behind (TestChaosScenarios-
// TrackRegistry pins the derivation).
var ChaosScenarios = func() []string {
	var names []string
	for _, sc := range fault.Scenarios() {
		if sc.Name != "none" {
			names = append(names, sc.Name)
		}
	}
	return names
}()

// chaosJob is one (app, scenario) cell of the chaos table.
type chaosJob struct {
	res *ChaosResult
	err error
}

// Chaos runs every app under every named scenario (ChaosScenarios when
// scenarios is nil) and writes a per-run table: cycles, fault count,
// and the cycle inflation versus the fault-free run of the same app.
// Runs fan out over a bounded pool of jobs host workers (jobs <= 0
// means runtime.NumCPU()); each run is an independent simulation, so
// the table is identical at any jobs count. The table itself is
// rendered serially, in fixed (app, scenario) order, after all runs
// finish.
func Chaos(w io.Writer, appNames, scenarios []string, seed uint64, jobs int) error {
	if scenarios == nil {
		scenarios = ChaosScenarios
	}
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}

	// Flatten the (app, scenario) grid — "none" baselines first-per-app —
	// and run every cell through the worker pool.
	type cell struct{ app, scenario string }
	var cells []cell
	for _, appName := range appNames {
		cells = append(cells, cell{appName, "none"})
		for _, scName := range scenarios {
			cells = append(cells, cell{appName, scName})
		}
	}
	results := make([]chaosJob, len(cells))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c cell) {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := RunChaos(c.app, c.scenario, seed)
			results[i] = chaosJob{r, err}
		}(i, c)
	}
	wg.Wait()

	fmt.Fprintf(w, "Chaos invariance (config %s, size test, seed %d)\n", ChaosConfig, seed)
	fmt.Fprintf(w, "%-14s %-16s %12s %8s %9s\n", "app", "scenario", "cycles", "faults", "slowdown")
	var base *ChaosResult
	for i, c := range cells {
		j := results[i]
		if j.err != nil {
			return j.err
		}
		if c.scenario == "none" {
			base = j.res
			fmt.Fprintf(w, "%-14s %-16s %12d %8d %9s\n",
				c.app, "none", base.Cycles, base.Faults, "1.00x")
			continue
		}
		fmt.Fprintf(w, "%-14s %-16s %12d %8d %9s\n",
			c.app, c.scenario, j.res.Cycles, j.res.Faults,
			slowdownStr(base.Cycles, j.res.Cycles))
	}
	return nil
}
