// Package bench is the paper-reproduction harness: it runs the 13
// kernels across the simulated configurations and regenerates every
// table and figure in the paper's evaluation (Tables III-V, Figures
// 4-8, the §VI-C ULI overhead report, and the energy comparison).
//
// The suite is safe for concurrent use: Run and View serialize access
// to the result caches and deduplicate in-flight simulations, so a
// host-parallel driver (Prewarm, the parallel Chaos sweep, or plain
// goroutines) can fan independent simulations out across host cores
// while every caller of the same (config, app) pair shares one run.
// Each simulation is fully contained in its own machine.New/wsrt.New
// instance; results are bit-identical regardless of host parallelism.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/energy"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/openload"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
	"bigtiny/internal/trace"
	"bigtiny/internal/wsrt"
)

// Suite runs (config, app) pairs on demand and caches the results so
// several tables/figures can share one set of simulations. The
// configuration fields must be set before the first Run/View call and
// left alone afterwards; the methods may then be called from any
// number of goroutines.
type Suite struct {
	// Size selects input scale for all runs.
	Size apps.Size
	// Grain overrides the per-app default task granularity (0 = default).
	Grain int
	// Verify (default true via NewSuite) checks outputs after every run.
	Verify bool
	// Progress, if non-nil, receives one line per completed run. Lines
	// are written atomically (whole lines, never interleaved) but their
	// order depends on host scheduling when runs execute in parallel.
	Progress io.Writer
	// Tracer, if non-nil, records scheduler events for each run
	// (intended for single-run use via cmd/btsim -trace; do not combine
	// with parallel Prewarm).
	Tracer *trace.Recorder
	// FaultScenario, when non-empty, names a fault-injection scenario
	// (fault.Lookup) applied to every run, seeded with FaultSeed.
	FaultScenario string
	FaultSeed     uint64
	// Oracle shadows every run with the memory-ordering oracle
	// (internal/oracle); a violation fails the run.
	Oracle bool
	// Deadline, when nonzero, overrides every configuration's watchdog
	// deadline (simulated cycles): a run that exceeds it fails with the
	// machine-state dump instead of hanging its caller. Success results
	// are deadline-independent (a run either finishes under the
	// deadline, bit-identical to an unbounded run, or errors), so the
	// result cache does not key on it.
	Deadline sim.Time
	// SimHook, when non-nil, runs at the top of every simulation with
	// the cell's names (and of every Cilkview analysis, with cfgName
	// "view"), inside the suite's panic containment. It exists so
	// robustness tests (of this package and of the serving layer) can
	// inject failures — panics, stalls — that no real app produces.
	// Leave nil outside tests.
	SimHook func(cfgName, appName string)

	// mu guards the caches and in-flight tables below. Simulations run
	// outside the lock; flight entries make concurrent callers of the
	// same key share one simulation (singleflight).
	mu      sync.Mutex
	results map[string]*stats.Run
	views   map[string]cilkview.Report
	// openResults caches open-system runs (OpenRun); keyed separately
	// because their identity includes the arrival spec and a per-cell
	// fault scenario rather than the suite-wide one.
	openResults map[string]*openload.Result
	flight      map[string]*flightCall
	// subs memoizes the derived suites Table5/Fig4 need (same settings,
	// different size or grain) so Prewarm and the serial render pass
	// warm and read the same caches.
	subs map[string]*Suite

	// progressMu serializes Progress writes; set by NewSuite and shared
	// with derived suites so parallel runs never interleave lines.
	progressMu *sync.Mutex

	// Kernel host-performance counters accumulated (atomically) across
	// every simulation this suite ran, for the benchmarking rig. They
	// are host-side observability only and never feed tables or JSON
	// exports. Derived suites (at) keep their own totals; HostCounters
	// sums them.
	eventsScheduled atomic.Uint64
	eventsFired     atomic.Uint64
	fastWaits       atomic.Uint64
	resumes         atomic.Uint64
}

// flightCall is one in-flight simulation or analysis; waiters block on
// done and then read the result fields.
type flightCall struct {
	done chan struct{}
	run  *stats.Run
	view cilkview.Report
	open *openload.Result
	err  error
}

// NewSuite returns a verifying suite at the given size.
func NewSuite(size apps.Size) *Suite {
	return &Suite{
		Size:        size,
		Verify:      true,
		results:     make(map[string]*stats.Run),
		views:       make(map[string]cilkview.Report),
		openResults: make(map[string]*openload.Result),
		flight:      make(map[string]*flightCall),
		subs:        make(map[string]*Suite),
		progressMu:  &sync.Mutex{},
	}
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

// at returns the suite whose Size/Grain match the arguments: s itself
// when they equal s's own, otherwise a derived suite memoized on s
// (created with the same Verify/Progress settings and sharing s's
// progress lock). Table5 and Fig4 render through it, and Prewarm
// resolves Work items through it, so both hit the same caches.
func (s *Suite) at(size apps.Size, grain int) *Suite {
	if size == s.Size && grain == s.Grain {
		return s
	}
	key := fmt.Sprintf("%d|%d", size, grain)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.subs[key]; ok {
		return sub
	}
	sub := NewSuite(size)
	sub.Grain = grain
	sub.Verify = s.Verify
	sub.Progress = s.Progress
	sub.Deadline = s.Deadline
	sub.SimHook = s.SimHook
	sub.progressMu = s.progressMu
	s.subs[key] = sub
	return sub
}

// runKey is the result-cache key for one (config, app) pair under the
// suite's fault/oracle settings.
func (s *Suite) runKey(cfgName, appName string) string {
	key := cfgName + "|" + appName
	if s.FaultScenario != "" {
		key = fmt.Sprintf("%s|%s|%d", key, s.FaultScenario, s.FaultSeed)
	}
	if s.Oracle {
		key += "|oracle"
	}
	return key
}

// Run simulates app on the named machine configuration (cached).
// The "IOx1" configuration runs the app's serial variant — it is the
// paper's "Serial IO" baseline. Concurrent callers of the same pair
// share a single simulation.
func (s *Suite) Run(cfgName, appName string) (*stats.Run, error) {
	return s.RunCtx(context.Background(), cfgName, appName)
}

// RunCtx is Run with cancellation: a done context interrupts an
// in-flight simulation this call is leading (the kernel aborts with a
// machine-state dump) and stops waiting on one it merely joined —
// the shared simulation itself keeps the leader's context, so one
// impatient waiter cannot kill a result other callers are blocked on.
func (s *Suite) RunCtx(ctx context.Context, cfgName, appName string) (*stats.Run, error) {
	key := "run:" + s.runKey(cfgName, appName)
	s.mu.Lock()
	if r, ok := s.results[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			return c.run, c.err
		case <-ctx.Done():
			return nil, fmt.Errorf("bench: %s on %s: %w", appName, cfgName, ctx.Err())
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	c.run, c.err = s.simulate(ctx, cfgName, appName)

	s.mu.Lock()
	if c.err == nil {
		s.results[key] = c.run
	}
	delete(s.flight, key)
	s.mu.Unlock()
	close(c.done)
	return c.run, c.err
}

// simulate performs one full simulation, uncached and lock-free: every
// run builds its own machine and runtime, so concurrent simulations
// share no mutable state. A panic anywhere in the cell — app setup,
// the simulation, verification, a test hook — is recovered into that
// cell's error: one poisoned (config, app) pair fails its own callers
// (the singleflight leader and every duplicate waiter) and nothing
// else.
func (s *Suite) simulate(ctx context.Context, cfgName, appName string) (r *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			r, err = nil, fmt.Errorf("bench: panic in %s on %s: %v\n%s",
				appName, cfgName, v, debug.Stack())
		}
	}()
	if s.SimHook != nil {
		s.SimHook(cfgName, appName)
	}
	cfg, err := machine.Lookup(cfgName)
	if err != nil {
		return nil, err
	}
	if s.Deadline > 0 {
		cfg.Deadline = s.Deadline
	}
	if s.FaultScenario != "" {
		sc, err := fault.Lookup(s.FaultScenario)
		if err != nil {
			return nil, err
		}
		cfg.Faults = &sc
		cfg.FaultSeed = s.FaultSeed
	}
	cfg.Oracle = s.Oracle
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	m := machine.New(cfg)
	// Wall-clock cancellation, released on every exit path.
	defer m.InterruptOn(ctx, appName+" on "+cfgName)()
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = grainFor(app, s.Grain)
	rt.Tracer = s.Tracer
	inst := app.Setup(rt, s.Size, s.Grain)
	root := inst.Root
	if cfgName == "IOx1" {
		root = inst.SerialRoot
	}
	if err := rt.Run(root); err != nil {
		return nil, fmt.Errorf("bench: %s on %s: %w", appName, cfgName, err)
	}
	if s.Verify {
		read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
		if err := inst.Verify(read); err != nil {
			return nil, fmt.Errorf("bench: %s on %s: verification failed: %w", appName, cfgName, err)
		}
	}
	r = stats.Collect(m, rt, appName)
	s.eventsScheduled.Add(m.Kernel.Scheduled())
	s.eventsFired.Add(m.Kernel.Fired())
	s.fastWaits.Add(m.Kernel.FastWaits())
	s.resumes.Add(m.Kernel.Resumes())
	s.progress("ran %-14s on %-16s: %12d cycles\n", appName, cfgName, r.Cycles)
	return r, nil
}

// HostCounters returns the kernel host-performance totals (events
// scheduled, events fired, fast-path waits) over every simulation this
// suite and its derived sub-suites have run.
func (s *Suite) HostCounters() (scheduled, fired, fastWaits uint64) {
	scheduled = s.eventsScheduled.Load()
	fired = s.eventsFired.Load()
	fastWaits = s.fastWaits.Load()
	s.mu.Lock()
	subs := make([]*Suite, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sc, f, fw := sub.HostCounters()
		scheduled += sc
		fired += f
		fastWaits += fw
	}
	return scheduled, fired, fastWaits
}

// Resumes returns the coroutine switches into a proc (sim.Kernel.Resumes)
// over the same simulations as HostCounters.
func (s *Suite) Resumes() uint64 {
	n := s.resumes.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		n += sub.Resumes()
	}
	return n
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
// grain (cached). Concurrent callers of the same app share a single
// analysis.
func (s *Suite) View(appName string) (cilkview.Report, error) {
	key := fmt.Sprintf("view:%s|%d|%d", appName, s.Size, s.Grain)
	s.mu.Lock()
	if v, ok := s.views[key]; ok {
		s.mu.Unlock()
		return v, nil
	}
	if c, ok := s.flight[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.view, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[key] = c
	s.mu.Unlock()

	c.view, c.err = s.analyze(appName)

	s.mu.Lock()
	if c.err == nil {
		s.views[key] = c.view
	}
	delete(s.flight, key)
	s.mu.Unlock()
	close(c.done)
	return c.view, c.err
}

// analyze performs one Cilkview analysis with the same panic
// containment simulate gives simulations: the native depth-first
// executor runs app code on this goroutine, so a panicking app fails
// its own cell instead of the process.
func (s *Suite) analyze(appName string) (v cilkview.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = cilkview.Report{}, fmt.Errorf("bench: panic analyzing %s: %v\n%s",
				appName, r, debug.Stack())
		}
	}()
	if s.SimHook != nil {
		s.SimHook("view", appName)
	}
	app, err := apps.ByName(appName)
	if err != nil {
		return cilkview.Report{}, err
	}
	return cilkview.Analyze(func(rt *wsrt.RT) wsrt.Body {
		rt.Grain = grainFor(app, s.Grain)
		return app.Setup(rt, s.Size, s.Grain).Root
	}), nil
}

// Energy returns the energy proxy for a cached or new run.
func (s *Suite) Energy(cfgName, appName string) (float64, error) {
	r, err := s.Run(cfgName, appName)
	if err != nil {
		return 0, err
	}
	return energy.DefaultModel().Estimate(r), nil
}

func grainFor(app *apps.App, override int) int {
	if override > 0 {
		return override
	}
	return app.DefaultGrain
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
