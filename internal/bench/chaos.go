package bench

import (
	"fmt"
	"io"

	"bigtiny/internal/apps"
	"bigtiny/internal/fault"
	"bigtiny/internal/openload"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
)

// ChaosConfig is the machine every chaos run uses: a small DTS system
// so each (app, scenario) pair exercises the full protocol stack (ULI,
// GPU-WB invalidate/flush discipline, NoC, DRAM) at test-input cost.
const ChaosConfig = "bT8/HCC-DTS-gwb"

// RunChaos runs one app under a named fault scenario as a test-size
// cell on ChaosConfig at s's Grain and Env.Deadline, shadowed by the
// memory-ordering oracle: faults must never produce a load no legal
// per-location order allows. The cell checks that the run finishes
// within its deadline and that the output equals the serial reference;
// RunChaos adds that a non-empty scenario injected at least one fault.
// The cell runs in a suite of its own, keyed on its scenario; its
// progress line and kernel counts go to s. Determinism is the caller's
// check: the same (app, scenario, seed) always yields the same Cycles.
func (s *Suite) RunChaos(appName, scenarioName string, seed uint64) (*stats.Run, error) {
	c := &Suite{Size: apps.Test, Grain: s.Grain, Env: openload.Options{
		Scenario: scenarioName, FaultSeed: seed, Oracle: true, Deadline: s.Env.Deadline}}
	r, err := c.Run(ChaosConfig, appName)
	s.count(c.eventsScheduled.Load(), c.eventsFired.Load(), c.fastWaits.Load(), c.resumes.Load())
	if err != nil {
		return nil, fmt.Errorf("chaos: %s (seed %d): %w", scenarioName, seed, err)
	}
	// "none" is the registry's one zero scenario (fault.TestCatalogue
	// pins that every other one injects something).
	if scenarioName != "none" && r.FaultTotal == 0 {
		return nil, fmt.Errorf("chaos: %s under %s (seed %d): scenario injected no faults",
			appName, scenarioName, seed)
	}
	s.progress("ran %-14s on %-16s: %12d cycles under %s\n", appName, ChaosConfig, r.Cycles, scenarioName)
	return r, nil
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

// Chaos runs every app under every named scenario (ChaosScenarios when
// scenarios is nil) through RunChaos and writes a per-run table: cycles,
// fault count, and the cycle inflation versus the fault-free run of the
// same app. The header names the grain when s overrides the apps'
// defaults.
// Runs fan out over a bounded pool of jobs host workers (jobs <= 0
// means runtime.NumCPU()); each run is an independent simulation, so
// the table is identical at any jobs count. The table itself is
// rendered serially, in fixed (app, scenario) order, after all runs
// finish.
func (s *Suite) Chaos(w io.Writer, appNames, scenarios []string, seed uint64, jobs int) error {
	if scenarios == nil {
		scenarios = ChaosScenarios
	}
	// Every cell names a scenario ("none" too), so the table reports the
	// seed a scenario runs under.
	seed = openload.Options{Scenario: "none", FaultSeed: seed}.Seed()

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
	runs := make([]*stats.Run, len(cells))
	errs := make([]error, len(cells))
	forEach(len(cells), jobs, func(i int) {
		runs[i], errs[i] = s.RunChaos(cells[i].app, cells[i].scenario, seed)
	})

	grain := ""
	if s.Grain > 0 {
		grain = fmt.Sprintf(", grain %d", s.Grain)
	}
	fmt.Fprintf(w, "Chaos invariance (config %s, size test%s, seed %d)\n", ChaosConfig, grain, seed)
	fmt.Fprintf(w, "%-14s %-16s %12s %8s %9s\n", "app", "scenario", "cycles", "faults", "slowdown")
	var base *stats.Run
	for i, c := range cells {
		if errs[i] != nil {
			return errs[i]
		}
		r, slowdown := runs[i], "1.00x"
		if c.scenario == "none" {
			base = r
		} else {
			slowdown = slowdownStr(base.Cycles, r.Cycles)
		}
		fmt.Fprintf(w, "%-14s %-16s %12d %8d %9s\n", c.app, c.scenario, r.Cycles, r.FaultTotal, slowdown)
	}
	return nil
}
