package bench

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/openload"
	"bigtiny/internal/stats"
)

// countingWriter counts progress lines; Suite serializes writes, but
// the counter is still guarded so the test itself is race-clean even
// if that guarantee regresses.
type countingWriter struct {
	mu    sync.Mutex
	lines int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.lines += strings.Count(string(p), "\n")
	c.mu.Unlock()
	return len(p), nil
}

// detWork is the worklist the determinism tests warm: a cross-section
// of baselines, HCC, and DTS configs over both app families, plus a
// Cilkview analysis and cells at an off-default grain.
func detWork(s *Suite) []Work {
	var work []Work
	for _, app := range []string{"cilk5-mt", "ligra-bfs"} {
		work = append(work, s.viewWork(app))
		for _, cfg := range []string{"IOx1", "bT/MESI", "bT/HCC-gwb", "bT/HCC-DTS-gwb"} {
			work = append(work, s.runWork(cfg, app))
		}
	}
	work = append(work, Work{Cfg: "tiny64", App: "ligra-tc", Size: s.Size, Grain: 8})
	work = append(work, Work{App: "ligra-tc", Size: s.Size, Grain: 8, View: true})
	return work
}

// snapshot flattens a suite's memo into comparable maps.
func snapshot(s *Suite) (runs map[string]interface{}, views map[string]interface{}) {
	runs = map[string]interface{}{}
	views = map[string]interface{}{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, c := range s.cells {
		switch v := c.val.(type) {
		case *stats.Run:
			runs[k] = *v
		case cilkview.Report:
			views[k] = v
		}
	}
	return runs, views
}

// TestParallelMatchesSerial is the determinism proof for the
// host-parallel runner: warming the same worklist at -j 1 and at -j 8
// must leave bit-identical stats.Run snapshots for every (config, app)
// pair. Each simulation is fully contained in its machine.New/wsrt.New
// instance, so host scheduling must not be able to perturb results.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	serial := NewSuite(apps.Test)
	if err := serial.Prewarm(detWork(serial), 1); err != nil {
		t.Fatal(err)
	}
	par := NewSuite(apps.Test)
	if err := par.Prewarm(detWork(par), 8); err != nil {
		t.Fatal(err)
	}

	sr, sv := snapshot(serial)
	pr, pv := snapshot(par)
	if len(sr) == 0 || len(sv) == 0 {
		t.Fatalf("empty snapshot: %d runs, %d views", len(sr), len(sv))
	}
	if len(sr) != len(pr) || len(sv) != len(pv) {
		t.Fatalf("cache shapes differ: serial %d runs/%d views, parallel %d runs/%d views",
			len(sr), len(sv), len(pr), len(pv))
	}
	for k, v := range sr {
		pvval, ok := pr[k]
		if !ok {
			t.Errorf("parallel run missing key %q", k)
			continue
		}
		if !reflect.DeepEqual(v, pvval) {
			t.Errorf("run %q diverged between -j 1 and -j 8:\nserial:   %+v\nparallel: %+v", k, v, pvval)
		}
	}
	for k, v := range sv {
		if !reflect.DeepEqual(v, pv[k]) {
			t.Errorf("view %q diverged between -j 1 and -j 8", k)
		}
	}
}

// cell is one simulation's observable output: every collected
// statistic and the canonical JSON export.
type cell struct {
	run *stats.Run
	js  []byte
}

// trial fixes everything about a run except its config, its app, and
// how many host workers share the suite.
type trial struct {
	size      apps.Size
	grain     int
	scenario  string
	faultSeed uint64
}

// warm runs every cfgs × appNames cell on a fresh suite with the
// memory-ordering oracle on, its work sharded over jobs host workers
// by Prewarm, and returns each cell's output keyed by "cfg/app". The
// ULI accounting identity is asserted on the way out.
func (tr trial) warm(t *testing.T, cfgs, appNames []string, jobs int) map[string]cell {
	t.Helper()
	s := NewSuite(tr.size)
	s.Grain = tr.grain
	s.Env = openload.Options{Scenario: tr.scenario, FaultSeed: tr.faultSeed, Oracle: true}
	var work []Work
	for _, cfg := range cfgs {
		for _, app := range appNames {
			work = append(work, s.runWork(cfg, app))
		}
	}
	if err := s.Prewarm(work, jobs); err != nil {
		t.Fatalf("-j %d: %v", jobs, err)
	}
	out := map[string]cell{}
	for _, w := range work {
		r, err := s.Run(w.Cfg, w.App)
		if err != nil {
			t.Fatal(err)
		}
		if u := r.ULI; u != nil && u.Reqs != u.Acks+u.Nacks+u.Drops {
			t.Fatalf("%s on %s: ULI accounting identity violated: reqs=%d acks=%d nacks=%d drops=%d",
				w.App, w.Cfg, u.Reqs, u.Acks, u.Nacks, u.Drops)
		}
		js, err := s.ResultJSON(context.Background(), w.Cfg, w.App)
		if err != nil {
			t.Fatal(err)
		}
		out[w.Cfg+"/"+w.App] = cell{r, js}
	}
	return out
}

// checkSharded compares every cell of a serial warm against the same
// cell of a warm sharded over jobs host workers: the stats and the
// JSON export must be byte-identical.
func checkSharded(t *testing.T, serial, sharded map[string]cell, jobs int) {
	t.Helper()
	for key, want := range serial {
		got, ok := sharded[key]
		if !ok {
			t.Fatalf("%s: missing from the -j %d warm", key, jobs)
		}
		if !reflect.DeepEqual(want.run, got.run) {
			t.Fatalf("%s: stats diverge at -j %d:\nserial:  %+v\nsharded: %+v", key, jobs, want.run, got.run)
		}
		if !bytes.Equal(want.js, got.js) {
			t.Fatalf("%s: JSON export diverges at -j %d:\nserial:  %s\nsharded: %s", key, jobs, want.js, got.js)
		}
	}
}

// TestShardedMatchesSerial: every app, at the Empty and Unit sizes, on
// a DTS, an HCC, and a MESI machine, gives byte-identical stats and
// JSON whether its runs go one at a time (-j 1) or are sharded over
// host workers that simulate them at once.
func TestShardedMatchesSerial(t *testing.T) {
	cfgs := []string{"bT/HCC-DTS-gwb", "bT/HCC-gwb", "bT/MESI"}
	for _, size := range []apps.Size{apps.Empty, apps.Unit} {
		for _, appName := range AppNames() {
			t.Run(size.String()+"/"+appName, func(t *testing.T) {
				tr := trial{size: size}
				serial := tr.warm(t, cfgs, []string{appName}, 1)
				checkSharded(t, serial, tr.warm(t, cfgs, []string{appName}, len(cfgs)), len(cfgs))
			})
		}
	}
}

// TestShardedMatchesSerialTestSize spot-checks real (Test-size)
// workloads on a DTS and a non-DTS machine: cilk5-cs run alone at -j 1
// must match the same run sharded over three host workers next to two
// other apps, and so must those apps.
func TestShardedMatchesSerialTestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full Test-size equivalence runs are not short")
	}
	appNames := []string{"cilk5-cs", "cilk5-mt", "ligra-bfs"}
	for _, cfgName := range []string{"bT/HCC-DTS-gwb", "bT/MESI"} {
		t.Run(cfgName, func(t *testing.T) {
			tr := trial{size: apps.Test}
			serial := tr.warm(t, []string{cfgName}, appNames[:1], 1)
			for key, c := range tr.warm(t, []string{cfgName}, appNames[1:], 1) {
				serial[key] = c
			}
			checkSharded(t, serial, tr.warm(t, []string{cfgName}, appNames, 3), 3)
		})
	}
}

// TestShardedDifferentialStress is the randomized differential harness
// for the host-parallel runner: each trial draws a random (app, size,
// grain, fault scenario, fault seed) tuple and a fan-out, runs the
// tuple alone at -j 1, then again with fan-out-1 other apps under the
// same tuple, sharded over a random number of host workers, and
// requires byte-identical stats and exports. The generator is seeded,
// so a failure reproduces by trial index.
func TestShardedDifferentialStress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	rng := rand.New(rand.NewSource(20260808))
	names := AppNames()
	scenarios := append([]string{""}, ChaosScenarios...)
	sizes := []apps.Size{apps.Empty, apps.Unit, apps.Test}
	grains := []int{0, 1, 4}
	fanouts := []int{2, 3, 4, 8, 64}

	const trials = 10
	for i := 0; i < trials; i++ {
		app := rng.Intn(len(names))
		tr := trial{
			size:     sizes[rng.Intn(len(sizes))],
			grain:    grains[rng.Intn(len(grains))],
			scenario: scenarios[rng.Intn(len(scenarios))],
		}
		if tr.scenario != "" {
			tr.faultSeed = uint64(rng.Intn(5) + 1)
		}
		fanout := fanouts[rng.Intn(len(fanouts))]
		jobs := rng.Intn(fanout) + 1
		var company []string
		for j := 0; j < fanout && j < len(names); j++ {
			company = append(company, names[(app+j)%len(names)])
		}
		t.Run(names[app]+"/"+tr.size.String(), func(t *testing.T) {
			serial := tr.warm(t, []string{ChaosConfig}, company[:1], 1)
			checkSharded(t, serial, tr.warm(t, []string{ChaosConfig}, company, jobs), jobs)
		})
	}
}

// TestRunSingleflight: concurrent callers of one cell — a simulation,
// a Cilkview analysis or an open-system run — share exactly one
// computation and receive the same result, and a joiner whose context
// is already done stops waiting without killing the leader.
func TestRunSingleflight(t *testing.T) {
	sp := openload.Spec{Workload: "reduce", Arrival: "poisson", RatePerK: 4, Requests: 8, Seed: 1}
	for _, tc := range []struct {
		name string
		w    Work
	}{
		{"run", Work{Cfg: robustCfg, App: "cilk5-mt", Size: apps.Empty}},
		{"view", Work{App: "cilk5-mt", Size: apps.Empty, View: true}},
		{"open", openWork(robustCfg, "", 0, sp)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(apps.Empty)
			var computed atomic.Int32
			entered := make(chan struct{})
			release := make(chan struct{})
			s.SimHook = func(cfg, app string) {
				if computed.Add(1) == 1 {
					close(entered)
				}
				<-release
			}

			const callers = 8
			vals := make([]any, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[0], errs[0] = s.do(context.Background(), tc.w)
			}()
			<-entered // the leader is inside the cell
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := s.do(dead, tc.w); !errors.Is(err, context.Canceled) {
				t.Fatalf("joiner with a dead context: err = %v, want context.Canceled", err)
			}
			for i := 1; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					vals[i], errs[i] = s.do(context.Background(), tc.w)
				}()
			}
			close(release)
			wg.Wait()

			for i := 0; i < callers; i++ {
				if errs[i] != nil {
					t.Fatalf("caller %d: %v", i, errs[i])
				}
				if vals[i] != vals[0] {
					t.Fatalf("caller %d got a different result than caller 0", i)
				}
			}
			if n := computed.Load(); n != 1 {
				t.Fatalf("%d computations for %d callers of one cell, want 1", n, callers)
			}
		})
	}
}

// TestTargetCellsAreWhatRenderReads: for every paperbench target that
// renders from the memo, Cells lists each cell once, and rendering
// after Prewarm(Cells) computes nothing more.
func TestTargetCellsAreWhatRenderReads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	appNames := []string{"cilk5-mt"}
	for name, render := range Targets {
		t.Run(name, func(t *testing.T) {
			s := NewSuite(apps.Test)
			var computed atomic.Int64
			s.SimHook = func(string, string) { computed.Add(1) }
			cells := s.Cells(render, appNames)
			if len(cells) == 0 {
				t.Fatal("no cells")
			}
			seen := map[string]bool{}
			for _, w := range cells {
				if k := s.key(w); seen[k] {
					t.Errorf("cell %s listed twice", k)
				} else {
					seen[k] = true
				}
			}
			if err := s.Prewarm(cells, 0); err != nil {
				t.Fatal(err)
			}
			if n := computed.Load(); n != int64(len(cells)) {
				t.Fatalf("prewarm computed %d cells, want %d", n, len(cells))
			}
			var sb strings.Builder
			if err := render(s, &sb, appNames); err != nil {
				t.Fatal(err)
			}
			if n := computed.Load() - int64(len(cells)); n != 0 {
				t.Fatalf("render after prewarm computed %d more cells", n)
			}
		})
	}
}

// TestTargetWorkCoversTargets: every paperbench render target except
// chaos is in Targets and reads at least one cell, and chaos and an
// unknown name are not (paperbench refuses an unknown name by that
// before anything runs).
func TestTargetWorkCoversTargets(t *testing.T) {
	s := NewSuite(apps.Test)
	for _, target := range []string{
		"table3", "table4", "table5", "fig4", "fig5", "fig6", "fig7", "fig8", "uli", "energy", "open", "view",
	} {
		render, ok := Targets[target]
		if !ok {
			t.Errorf("target %q missing from Targets", target)
			continue
		}
		if len(s.Cells(render, []string{"cilk5-mt"})) == 0 {
			t.Errorf("target %q reads no cells", target)
		}
	}
	if _, ok := Targets["chaos"]; ok {
		t.Error("chaos target unexpectedly renders from the memo")
	}
	if _, ok := Targets["nonesuch"]; ok {
		t.Error("unknown target accepted")
	}
}

// TestPrewarmThenRenderIsCached: a Table IV render after a parallel
// Prewarm of its cells must do zero additional simulations.
func TestPrewarmThenRenderIsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSuite(apps.Test)
	appNames := []string{"cilk5-mt"}
	var cw countingWriter
	s.Progress = &cw
	if err := s.Prewarm(s.Cells((*Suite).Table4, appNames), 4); err != nil {
		t.Fatal(err)
	}
	cw.mu.Lock()
	warmed := cw.lines
	cw.mu.Unlock()
	if warmed != 6 {
		t.Fatalf("prewarm ran %d simulations, want 6", warmed)
	}
	var sb strings.Builder
	if err := s.Table4(&sb, appNames); err != nil {
		t.Fatal(err)
	}
	cw.mu.Lock()
	after := cw.lines
	cw.mu.Unlock()
	if after != warmed {
		t.Fatalf("render after prewarm ran %d extra simulations", after-warmed)
	}
	if !strings.Contains(sb.String(), "cilk5-mt") {
		t.Fatalf("table missing app row:\n%s", sb.String())
	}
}

// TestTable3WorkOrder pins Table3Work's list and order, which the
// benchmark rig shuffles by seed: per app the view, IOx1, O3x1, O3x4,
// O3x8, bT/MESI, the HCC configs, then the DTS configs, at the suite's
// size and grain.
func TestTable3WorkOrder(t *testing.T) {
	cfgs := append([]string{"IOx1", "O3x1", "O3x4", "O3x8", "bT/MESI"}, HCCConfigs...)
	cfgs = append(cfgs, DTSConfigs...)
	for _, tc := range []struct {
		size  apps.Size
		grain int
		apps  []string
	}{
		{apps.Test, 0, []string{"cilk5-mt"}},
		{apps.Ref, 8, []string{"ligra-bfs", "cilk5-cs"}},
	} {
		s := &Suite{Size: tc.size, Grain: tc.grain}
		var want []Work
		for _, app := range tc.apps {
			want = append(want, Work{App: app, Size: tc.size, Grain: tc.grain, View: true})
			for _, cfg := range cfgs {
				want = append(want, Work{Cfg: cfg, App: app, Size: tc.size, Grain: tc.grain})
			}
		}
		if got := s.Table3Work(tc.apps); !reflect.DeepEqual(got, want) {
			t.Errorf("Table3Work(%v) at %s grain %d:\n got %v\nwant %v", tc.apps, tc.size, tc.grain, got, want)
		}
	}
}

// TestPrewarmDedupsWork: duplicate work items collapse to one run.
func TestPrewarmDedupsWork(t *testing.T) {
	s := NewSuite(apps.Test)
	var cw countingWriter
	s.Progress = &cw
	w := s.runWork("bT/MESI", "cilk5-mt")
	if err := s.Prewarm([]Work{w, w, w, w}, 4); err != nil {
		t.Fatal(err)
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.lines != 1 {
		t.Fatalf("%d simulations for 4 copies of one work item, want 1", cw.lines)
	}
}

// TestPrewarmReportsErrors: a bad work item surfaces as Prewarm's
// return value without poisoning the rest of the warm.
func TestPrewarmReportsErrors(t *testing.T) {
	s := NewSuite(apps.Test)
	work := []Work{
		s.runWork("no-such-config", "cilk5-mt"),
		s.runWork("bT/MESI", "cilk5-mt"),
	}
	if err := s.Prewarm(work, 2); err == nil {
		t.Fatal("Prewarm swallowed the bad-config error")
	}
	// The good item must still be warm.
	var cw countingWriter
	s.Progress = &cw
	if _, err := s.Run("bT/MESI", "cilk5-mt"); err != nil {
		t.Fatal(err)
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.lines != 0 {
		t.Fatal("good work item was not warmed")
	}
}
