package bench

import (
	"strings"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// TestChaosInvariance is the chaos harness's core claim: every app,
// under every fault scenario, still computes the serial-reference
// answer and finishes within its deadline, and the scenario actually
// fired. RunChaos checks all three internally.
func TestChaosInvariance(t *testing.T) {
	scenarios := []string{"noc-jitter", "uli-nack-storm", "dram-spike"}
	for _, appName := range AppNames() {
		for _, scName := range scenarios {
			t.Run(appName+"/"+scName, func(t *testing.T) {
				if _, err := new(Suite).RunChaos(appName, scName, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChaosAllScenario runs the everything-at-once scenario on a
// representative subset (one app per family).
func TestChaosAllScenario(t *testing.T) {
	for _, appName := range []string{"cilk5-cs", "ligra-bfs", "cilk5-nq"} {
		r, err := new(Suite).RunChaos(appName, "chaos-all", 3)
		if err != nil {
			t.Fatal(err)
		}
		if r.FaultTotal == 0 {
			t.Fatalf("%s: chaos-all injected nothing", appName)
		}
	}
}

// TestChaosLossyInvariance is the recovery layer's core claim: even
// when steal requests and responses vanish on the ULI mesh and a tiny
// core fail-stops mid-run, every app still computes the serial-reference
// answer within its deadline. RunChaos also shadows every run with the
// memory-ordering oracle, so a recovery path that skipped a coherence
// operation would fail here even if the final output happened to match.
func TestChaosLossyInvariance(t *testing.T) {
	for _, appName := range AppNames() {
		for _, scName := range []string{"lossy-uli", "core-loss", "chaos-lossy-all"} {
			t.Run(appName+"/"+scName, func(t *testing.T) {
				r, err := new(Suite).RunChaos(appName, scName, 1)
				if err != nil {
					t.Fatal(err)
				}
				if r.OracleOps == 0 {
					t.Fatal("oracle checked no memory operations")
				}
				if scName == "core-loss" && r.RT.OfflineCores == 0 {
					t.Fatal("core-loss scenario took no core offline")
				}
				if scName == "lossy-uli" && r.ULI.Drops == 0 {
					t.Fatal("lossy-uli scenario dropped no steal messages")
				}
			})
		}
	}
}

// TestULIAccountingInvariant: every steal request terminates in exactly
// one of ACK delivered, NACK delivered, or dropped somewhere on its
// path — so Reqs == Acks + Nacks + Drops always — and the mean latency
// is computed over delivered ACKs only.
func TestULIAccountingInvariant(t *testing.T) {
	for _, scName := range []string{"chaos-all", "lossy-uli", "chaos-lossy-all"} {
		for _, appName := range []string{"cilk5-cs", "cilk5-mm", "ligra-bfs"} {
			r, err := new(Suite).RunChaos(appName, scName, 2)
			if err != nil {
				t.Fatal(err)
			}
			u := r.ULI
			if u.Reqs != u.Acks+u.Nacks+u.Drops {
				t.Errorf("%s/%s: reqs=%d != acks=%d + nacks=%d + drops=%d",
					appName, scName, u.Reqs, u.Acks, u.Nacks, u.Drops)
			}
			if u.Acks == 0 && u.AvgLatency() != 0 {
				t.Errorf("%s/%s: nonzero AvgLatency with zero ACKs", appName, scName)
			}
			if u.Acks > 0 && u.AvgLatency() <= 0 {
				t.Errorf("%s/%s: AvgLatency %.2f with %d ACKs",
					appName, scName, u.AvgLatency(), u.Acks)
			}
		}
	}
}

// TestChaosSeedReproducible: the same (app, scenario, seed) must give
// bit-identical cycle counts, and a different seed must perturb them.
func TestChaosSeedReproducible(t *testing.T) {
	for _, scName := range []string{"chaos-all", "chaos-lossy-all"} {
		a, err := new(Suite).RunChaos("cilk5-cs", scName, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := new(Suite).RunChaos("cilk5-cs", scName, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || a.FaultTotal != b.FaultTotal {
			t.Fatalf("%s: same seed diverged: %d/%d cycles, %d/%d faults",
				scName, a.Cycles, b.Cycles, a.FaultTotal, b.FaultTotal)
		}
		c, err := new(Suite).RunChaos("cilk5-cs", scName, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles == c.Cycles && a.FaultSummary == c.FaultSummary {
			t.Fatalf("%s: seeds 7 and 8 produced identical runs (%d cycles, %q)",
				scName, a.Cycles, a.FaultSummary)
		}
	}
}

// runBare runs an app on ChaosConfig with no fault injector at all and
// returns the final cycle count.
func runBare(t *testing.T, appName string) sim.Time {
	t.Helper()
	cfg, err := machine.Lookup(ChaosConfig)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runVerified(t, cfg, appName)
	return m.Kernel.Now()
}

// runVerified runs an app at test size on a machine built from cfg and
// checks its output against the serial reference.
func runVerified(t *testing.T, cfg machine.Config, appName string) (*machine.Machine, *wsrt.RT) {
	t.Helper()
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cfg)
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = app.DefaultGrain
	inst := app.Setup(rt, apps.Test, 0)
	if err := rt.Run(inst.Root); err != nil {
		t.Fatal(err)
	}
	read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
	if err := inst.Verify(read); err != nil {
		t.Fatal(err)
	}
	return m, rt
}

// TestLateAckSalvage reaches the late-ACK salvage path, which no stock
// scenario takes. The tiny response-drop probability makes the scenario
// lossy, which arms the 4096-cycle steal timeout; ULI delays of up to
// 9000 cycles then let some ACKs arrive after their thief gave up. Each
// stale ACK's task must be salvaged and every task run exactly once,
// with the output verified under the oracle.
func TestLateAckSalvage(t *testing.T) {
	sc := fault.Scenario{Name: "late-acks", ULIDelayProb: 0.3, ULIDelayMax: 9000, ULIRespDropProb: 0.001}
	for _, appName := range []string{"cilk5-cs", "cilk5-mt"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg, err := machine.Lookup(ChaosConfig)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults, cfg.FaultSeed, cfg.Oracle = &sc, seed, true
			m, rt := runVerified(t, cfg, appName)
			u, r := m.ULI.Stats, rt.Stats
			if u.LateAcks == 0 {
				t.Errorf("%s seed %d: no late ACKs (%+v)", appName, seed, u)
			}
			if r.Salvages != u.LateAcks {
				t.Errorf("%s seed %d: %d salvages for %d late ACKs", appName, seed, r.Salvages, u.LateAcks)
			}
			if r.LocalExecs+r.StolenExec != r.Spawns+1 {
				t.Errorf("%s seed %d: tasks not run exactly once: %v", appName, seed, r)
			}
		}
	}
}

// TestNoneScenarioMatchesBaseline: an injector armed with the "none"
// scenario must be cycle-identical to running with no injector at all —
// the fault hooks are free when disabled.
func TestNoneScenarioMatchesBaseline(t *testing.T) {
	for _, appName := range []string{"cilk5-cs", "ligra-bfs"} {
		bare := runBare(t, appName)
		none, err := new(Suite).RunChaos(appName, "none", 1)
		if err != nil {
			t.Fatal(err)
		}
		if none.Cycles != bare {
			t.Fatalf("%s: none-scenario %d cycles vs bare %d cycles",
				appName, none.Cycles, bare)
		}
		if none.FaultTotal != 0 {
			t.Fatalf("%s: none scenario injected %d faults", appName, none.FaultTotal)
		}
	}
}

// TestSuiteFaultScenario: the Suite plumbs fault scenarios through to
// the machine and keys its cache on them.
func TestSuiteFaultScenario(t *testing.T) {
	s := NewSuite(apps.Test)
	base, err := s.Run(ChaosConfig, "cilk5-cs")
	if err != nil {
		t.Fatal(err)
	}
	if base.FaultTotal != 0 {
		t.Fatalf("fault-free suite run reported %d faults", base.FaultTotal)
	}
	s.Env.Scenario = "uli-nack-storm"
	s.Env.FaultSeed = 1
	stormy, err := s.Run(ChaosConfig, "cilk5-cs")
	if err != nil {
		t.Fatal(err)
	}
	if stormy == base {
		t.Fatal("suite cache ignored the fault scenario")
	}
	if stormy.FaultTotal == 0 || !strings.Contains(stormy.FaultSummary, "uli-nack") {
		t.Fatalf("storm run faults: %d (%q)", stormy.FaultTotal, stormy.FaultSummary)
	}
	if _, err := s.Run(ChaosConfig, "cilk5-cs"); err != nil {
		t.Fatal(err)
	}
	s.Env.Scenario = "nonesuch"
	if _, err := s.Run(ChaosConfig, "ligra-bc"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestChaosKeepsSuiteSettings: a chaos cell runs at its suite's grain
// and deadline, and its progress line and kernel counts go to the suite.
func TestChaosKeepsSuiteSettings(t *testing.T) {
	var progress strings.Builder
	s := &Suite{Grain: 256, Progress: &progress}
	r, err := s.RunChaos("cilk5-cs", "none", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Suite{Grain: 256}).Run(ChaosConfig, "cilk5-cs")
	if err != nil {
		t.Fatal(err)
	}
	def, err := new(Suite).RunChaos("cilk5-cs", "none", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != want.Cycles || r.Cycles == def.Cycles {
		t.Errorf("chaos cell at grain 256 ran %d cycles; want %d (the default grain runs %d)",
			r.Cycles, want.Cycles, def.Cycles)
	}
	if !strings.Contains(progress.String(), "cilk5-cs") {
		t.Errorf("no progress line for the chaos cell: %q", progress.String())
	}
	if scheduled, _, _ := s.HostCounters(); scheduled == 0 || s.Resumes() == 0 {
		t.Errorf("chaos cell counted %d events and %d resumes", scheduled, s.Resumes())
	}

	short := &Suite{}
	short.Env.Deadline = 1000
	if _, err := short.RunChaos("cilk5-cs", "none", 1); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("a %d-cycle chaos cell passed a 1000-cycle deadline (err %v)", def.Cycles, err)
	}
}

// TestChaosHeaderNamesGrain: a chaos table run at a grain override says
// so in its header, since its cycles are not the default grain's; at
// the apps' default grains the header is the golden's.
func TestChaosHeaderNamesGrain(t *testing.T) {
	header := func(grain int) string {
		var out strings.Builder
		if err := (&Suite{Grain: grain}).Chaos(&out, []string{"cilk5-cs"}, []string{}, 1, 1); err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(out.String(), "\n")
		return first
	}
	if got, want := header(256), "Chaos invariance (config bT8/HCC-DTS-gwb, size test, grain 256, seed 1)"; got != want {
		t.Errorf("grain 256 header %q, want %q", got, want)
	}
	if got, want := header(0), "Chaos invariance (config bT8/HCC-DTS-gwb, size test, seed 1)"; got != want {
		t.Errorf("default-grain header %q, want %q", got, want)
	}
}
