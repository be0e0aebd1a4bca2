// Package bench is the paper-reproduction harness: it runs the 13
// kernels across the simulated configurations and regenerates every
// table and figure in the paper's evaluation (Tables III-V, Figures
// 4-8, the §VI-C ULI overhead report, and the energy comparison).
//
// The suite is safe for concurrent use: every cell — a simulation, a
// Cilkview analysis or an open-system run — goes through one memo of
// finished cells, so a host-parallel caller (Prewarm, the parallel
// Chaos sweep, or plain goroutines) can fan independent simulations out
// across host cores. Prewarm hands each distinct cell to one worker;
// two callers that ask for one uncached cell at the same moment each
// compute it, to the same bytes. Every closed cell is checked against
// its serial reference. Each simulation is fully contained in its own
// machine.New/wsrt.New instance; results are bit-identical regardless
// of host parallelism.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/openload"
	"bigtiny/internal/stats"
	"bigtiny/internal/trace"
	"bigtiny/internal/wsrt"
)

// Suite runs cells on demand and caches the results so several
// tables/figures can share one set of simulations. The configuration
// fields must be set before the first Run/View call and left alone
// afterwards; the methods may then be called from any number of
// goroutines. The zero Suite is a test-size suite.
type Suite struct {
	// Size selects input scale for all runs.
	Size apps.Size
	// Grain overrides the per-app default task granularity (0 = default).
	Grain int
	// Progress, if non-nil, receives one line per completed run. Lines
	// are written atomically (whole lines, never interleaved) but their
	// order depends on host scheduling when runs execute in parallel.
	Progress io.Writer
	// Tracer, if non-nil, records scheduler events for each run
	// (intended for single-run use via cmd/btsim -trace; do not combine
	// with parallel Prewarm).
	Tracer *trace.Recorder
	// Env is every cell's run environment: the closed-loop fault
	// scenario and seed (an open cell names its own, see OpenRun), the
	// oracle, and the watchdog deadline (a run past it fails with the
	// machine-state dump). A successful run is deadline-independent, so
	// the memo does not key on the deadline.
	Env openload.Options
	// SimHook, when non-nil, runs at the top of every simulation with
	// the cell's names (and of every Cilkview analysis, with cfgName
	// "view"), inside the suite's panic containment. It exists so
	// robustness tests (of this package and of the serving layer) can
	// inject failures — panics, stalls — that no real app produces.
	// Leave nil outside tests.
	SimHook func(cfgName, appName string)
	// plant, when non-nil, edits a closed cell's runtime counters before
	// they are checked, so a test can plant the miscount of a runtime
	// that lost or repeated a task.
	plant func(*wsrt.RunStats)

	// mu guards cells, the memo: one entry per cell key (see key), for
	// cells that succeeded only, so the next call of a failed cell runs
	// it again. Cells compute outside the lock.
	mu    sync.Mutex
	cells map[string]kept

	// record makes the suite a recorder (see Cells): the memo notes each
	// new cell in recorded and answers it with a zero result instead of
	// computing it.
	record   bool
	recorded []Work

	// progressMu serializes Progress writes so parallel runs never
	// interleave lines.
	progressMu sync.Mutex

	// Kernel host-performance counters accumulated (atomically) across
	// every simulation this suite ran, for the benchmarking rig. They
	// are host-side observability only and never feed tables or JSON
	// exports.
	eventsScheduled atomic.Uint64
	eventsFired     atomic.Uint64
	fastWaits       atomic.Uint64
	resumes         atomic.Uint64
}

// kept is one memo entry: a finished cell and its result.
type kept struct {
	w   Work
	val any // *stats.Run, cilkview.Report or *openload.Result
}

// NewSuite returns a suite at the given size.
func NewSuite(size apps.Size) *Suite {
	return &Suite{Size: size}
}

// Check validates a closed-loop cell's settings, one check each:
// machine.Lookup, apps.ByName, apps.ParseSize, apps.CheckGrain and
// openload.Options.Check. It returns the parsed size. btsim and the
// serving layer both call it, so a bad setting reads the same from
// either.
func Check(cfgName, appName, size string, grain int, env openload.Options) (apps.Size, error) {
	if _, err := machine.Lookup(cfgName); err != nil {
		return 0, err
	}
	if _, err := apps.ByName(appName); err != nil {
		return 0, err
	}
	sz, err := apps.ParseSize(size)
	if err != nil {
		return 0, err
	}
	if err := apps.CheckGrain(grain); err != nil {
		return 0, err
	}
	if err := env.Check(); err != nil {
		return 0, err
	}
	return sz, nil
}

// The evaluation's configuration lists.
var (
	// HCCConfigs are the three software-centric tiny-core protocols.
	HCCConfigs = []string{"bT/HCC-dnv", "bT/HCC-gwt", "bT/HCC-gwb"}
	// DTSConfigs add direct task stealing.
	DTSConfigs = []string{"bT/HCC-DTS-dnv", "bT/HCC-DTS-gwt", "bT/HCC-DTS-gwb"}
	// Table5Apps is the paper's 256-core subset.
	Table5Apps = []string{"cilk5-cs", "ligra-bc", "ligra-bfs", "ligra-cc", "ligra-tc"}
)

// key is the memo key of cell w under the suite's settings: the fields
// that decide w's result and nothing else (a view has no config, an
// open cell no app, size or grain). WriteJSON and WriteOpenJSON export
// in key order.
func (s *Suite) key(w Work) string {
	var key string
	switch {
	case w.Open != nil:
		seed := openload.Options{Scenario: w.OpenScenario, FaultSeed: w.OpenFaultSeed}.Seed()
		key = fmt.Sprintf("open|%s|%s|%d|%s", w.Cfg, w.OpenScenario, seed, w.Open.Key())
	case w.View:
		return fmt.Sprintf("view|%d|%d|%s", w.Size, w.Grain, w.App)
	default:
		key = fmt.Sprintf("run|%d|%d|%s|%s", w.Size, w.Grain, w.Cfg, w.App)
		if s.Env.Scenario != "" {
			key = fmt.Sprintf("%s|%s|%d", key, s.Env.Scenario, s.Env.Seed())
		}
	}
	if s.Env.Oracle {
		key += "|oracle"
	}
	return key
}

// do returns cell w's result: the kept one, or a new computation that
// is kept if it succeeds. A done ctx interrupts the computation (the
// kernel aborts with a machine-state dump); a kept cell is returned
// even to a dead ctx.
func (s *Suite) do(ctx context.Context, w Work) (any, error) {
	key := s.key(w)
	s.mu.Lock()
	c, ok := s.cells[key]
	s.mu.Unlock()
	if ok {
		return c.val, nil
	}
	val, err := s.compute(ctx, w)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cells[key]; ok {
		return c.val, nil // a concurrent caller kept the same cell first
	}
	if s.cells == nil {
		s.cells = make(map[string]kept)
	}
	s.cells[key] = kept{w: w, val: val}
	if s.record {
		s.recorded = append(s.recorded, w)
	}
	return val, nil
}

// memo is do with the result's type: *stats.Run for a simulation,
// cilkview.Report for a view, *openload.Result for an open cell.
func memo[T any](ctx context.Context, s *Suite, w Work) (T, error) {
	v, err := s.do(ctx, w)
	t, _ := v.(T)
	return t, err
}

// finished returns the memo's cells in key order.
func (s *Suite) finished() []kept {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]kept, len(keys))
	for i, k := range keys {
		out[i] = s.cells[k]
	}
	return out
}

// compute performs one cell, uncached and lock-free: every simulation
// builds its own machine and runtime, so concurrent cells share no
// mutable state. A panic anywhere in the cell — app setup, the
// simulation, verification, a test hook — is recovered into that
// cell's error: one poisoned cell fails its own caller and nothing
// else.
func (s *Suite) compute(ctx context.Context, w Work) (val any, err error) {
	defer func() {
		if v := recover(); v != nil {
			val, err = nil, fmt.Errorf("bench: panic in %s: %v\n%s", w.name(), v, debug.Stack())
		}
	}()
	switch {
	case s.record && w.Open != nil:
		return &openload.Result{}, nil
	case s.record && w.View:
		return cilkview.Report{}, nil
	case s.record:
		return &stats.Run{}, nil
	case w.Open != nil:
		return s.simulateOpen(ctx, w)
	case w.View:
		return s.analyze(w)
	}
	return s.simulate(ctx, w)
}

// Run simulates app on the named machine configuration (cached).
// The "IOx1" configuration runs the app's serial variant — it is the
// paper's "Serial IO" baseline.
func (s *Suite) Run(cfgName, appName string) (*stats.Run, error) {
	return s.RunCtx(context.Background(), cfgName, appName)
}

// RunCtx is Run with cancellation: a done context interrupts the
// simulation (see do).
func (s *Suite) RunCtx(ctx context.Context, cfgName, appName string) (*stats.Run, error) {
	return memo[*stats.Run](ctx, s, s.runWork(cfgName, appName))
}

// simulate performs one closed-loop simulation at the cell's size and
// grain under the suite's settings.
func (s *Suite) simulate(ctx context.Context, w Work) (*stats.Run, error) {
	if s.SimHook != nil {
		s.SimHook(w.Cfg, w.App)
	}
	cfg, err := s.Env.Config(w.Cfg)
	if err != nil {
		return nil, err
	}
	app, err := apps.ByName(w.App)
	if err != nil {
		return nil, err
	}
	m := machine.New(cfg)
	// Wall-clock cancellation, released on every exit path.
	defer m.InterruptOn(ctx, w.name())()
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Tracer = s.Tracer
	inst := app.Setup(rt, w.Size, w.Grain)
	root := inst.Root
	if w.Cfg == "IOx1" {
		root = inst.SerialRoot
	}
	if err := rt.Run(root); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.name(), err)
	}
	read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
	if err := inst.Verify(read); err != nil {
		return nil, fmt.Errorf("bench: %s: verification failed: %w", w.name(), err)
	}
	if s.plant != nil {
		s.plant(&rt.Stats)
	}
	if err := exactlyOnce(rt.Stats); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.name(), err)
	}
	r := stats.Collect(m, rt, w.App)
	s.count(m.Kernel.Scheduled(), m.Kernel.Fired(), m.Kernel.FastWaits(), m.Kernel.Resumes())
	m.Release()
	s.progress("ran %-14s on %-16s: %12d cycles\n", w.App, w.Cfg, r.Cycles)
	return r, nil
}

// exactlyOnce checks a closed cell's task accounting: every spawned
// task, and the root, ran exactly once. An open cell is not closed: it
// stops at its horizon with tasks still in flight.
func exactlyOnce(s wsrt.RunStats) error {
	if s.LocalExecs+s.StolenExec != s.Spawns+1 {
		return fmt.Errorf("exactly-once violated: %d local + %d stolen executions for %d spawns and the root",
			s.LocalExecs, s.StolenExec, s.Spawns)
	}
	return nil
}

// count adds one simulation's kernel counts to the host counters.
func (s *Suite) count(scheduled, fired, fastWaits, resumes uint64) {
	s.eventsScheduled.Add(scheduled)
	s.eventsFired.Add(fired)
	s.fastWaits.Add(fastWaits)
	s.resumes.Add(resumes)
}

// HostCounters returns the kernel host-performance totals (events
// scheduled, events fired, fast-path waits) over every simulation this
// suite has run.
func (s *Suite) HostCounters() (scheduled, fired, fastWaits uint64) {
	return s.eventsScheduled.Load(), s.eventsFired.Load(), s.fastWaits.Load()
}

// Resumes returns the coroutine switches into a proc (sim.Kernel.Resumes)
// over the same simulations as HostCounters.
func (s *Suite) Resumes() uint64 {
	return s.resumes.Load()
}

// progress writes one whole progress line under the shared lock.
func (s *Suite) progress(format string, args ...any) {
	if s.Progress == nil {
		return
	}
	s.progressMu.Lock()
	fmt.Fprintf(s.Progress, format, args...)
	s.progressMu.Unlock()
}

// View returns the Cilkview analysis for app at the suite's size and
// grain (cached).
func (s *Suite) View(appName string) (cilkview.Report, error) {
	return memo[cilkview.Report](context.Background(), s, s.viewWork(appName))
}

// analyze performs one Cilkview analysis at the cell's size and grain.
// The native depth-first executor runs app code on this goroutine, so
// compute's panic containment covers it like a simulation.
func (s *Suite) analyze(w Work) (cilkview.Report, error) {
	if s.SimHook != nil {
		s.SimHook("view", w.App)
	}
	app, err := apps.ByName(w.App)
	if err != nil {
		return cilkview.Report{}, err
	}
	return cilkview.Analyze(func(rt *wsrt.RT) wsrt.Body {
		return app.Setup(rt, w.Size, w.Grain).Root
	}), nil
}

// AppNames returns the apps under test (all 13 by default).
func AppNames() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return names
}

// geomean computes the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
