package wsrt

import (
	"strings"
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
)

// lossyMachine builds the small DTS test machine with a fault scenario
// and the memory-ordering oracle armed, as the bench chaos harness does.
func lossyMachine(t testing.TB, tinyProto string, sc fault.Scenario, seed uint64) *machine.Machine {
	t.Helper()
	base, err := machine.Lookup("bT/HCC-" + tinyProto)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Name = "test-lossy-" + tinyProto
	cfg.NumBig, cfg.NumTiny = 1, 7
	cfg.Rows, cfg.Cols = 2, 4
	cfg.NumBanks = 4
	cfg.DTS = true
	cfg.Deadline = 80_000_000
	cfg.Faults = &sc
	cfg.FaultSeed = seed
	cfg.Oracle = true
	return machine.New(cfg)
}

// TestOfflineDegradation: a tiny core fail-stops mid-run; the
// survivors must still produce the right answer, and the runtime must
// report the degradation.
func TestOfflineDegradation(t *testing.T) {
	for _, p := range []string{"dnv", "gwt", "gwb"} {
		m := lossyMachine(t, p, fault.Scenario{OfflineAt: 2_000, OfflineLane: 2}, 1)
		rt, got, _ := runFib(t, m, DTS)
		if got != fib15 {
			t.Errorf("%s: fib(15) = %d, want %d (stats %v)", p, got, fib15, rt.Stats)
		}
		if rt.Stats.OfflineCores != 1 {
			t.Errorf("%s: offline cores = %d, want 1", p, rt.Stats.OfflineCores)
		}
		if rt.Stats.DegradedCycles == 0 {
			t.Errorf("%s: no degraded cycles recorded", p)
		}
	}
}

// TestLossyULIRun: fib under steal-message loss must still converge to
// the right answer via timeouts, retries, restitution and salvage, with
// the terminal-outcome identity intact.
func TestLossyULIRun(t *testing.T) {
	m := lossyMachine(t, "gwb",
		fault.Scenario{ULIReqDropProb: 0.1, ULIRespDropProb: 0.1}, 3)
	rt, got, _ := runFib(t, m, DTS)
	if got != fib15 {
		t.Fatalf("fib(15) = %d, want %d (stats %v)", got, fib15, rt.Stats)
	}
	s := m.ULI.Stats
	if s.Drops == 0 || s.Timeouts == 0 {
		t.Fatalf("10%% loss injected no drops/timeouts: %+v", s)
	}
	if s.Reqs != s.Acks+s.Nacks+s.Drops {
		t.Fatalf("accounting identity violated: %+v", s)
	}
}

// TestReclaimStrandedTask: work left behind on a fail-stopped core must
// be reclaimed and executed by a survivor. At workerLoop boundaries the
// deque is naturally empty (fully-strict execution), so the root plants
// a task in the dead core's deque post-mortem — modelling work that
// arrived after the fail-stop — and waits for a surviving thief to
// reclaim it through shared memory.
func TestReclaimStrandedTask(t *testing.T) {
	// Lane 1 is tiny core 1 => thread id 2. OfflineAt 1 kills it at its
	// first scheduling-loop boundary, before it can pop anything.
	m := lossyMachine(t, "gwb", fault.Scenario{OfflineAt: 1, OfflineLane: 1}, 1)
	rt := New(m, DTS)
	out := m.Mem.AllocWords(1)
	const victim = 2
	err := rt.Run(func(c *Ctx) {
		// Let the victim reach its loop boundary and fail-stop.
		for !rt.offlineMark[victim] {
			c.Compute(100)
		}
		// The root is one join short until the planted task executes.
		c.env.Store(c.cur+descRC*8, 1)
		task := c.newTask(fidRuntime, func(cc *Ctx) { cc.Store(out, 7) })
		c.enq(rt.deques[victim], task)
		// Wait for a survivor to reclaim and run it; poll with an AMO so
		// the read is coherent regardless of who flushed what when.
		for c.env.Amo(out, cache.AmoOr, 0, 0) == 0 {
			c.Compute(100)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cache.DebugReadWord(out); got != 7 {
		t.Fatalf("stranded task result = %d, want 7", got)
	}
	if rt.Stats.Reclaims == 0 {
		t.Fatalf("no reclaim recorded (stats %v)", rt.Stats)
	}
	if rt.Stats.OfflineCores != 1 {
		t.Fatalf("offline cores = %d, want 1", rt.Stats.OfflineCores)
	}
}

// TestOracleCatchesSkippedStealFlush is the planted-bug check: build the
// runtime with the steal-handler cache_flush elided (the §IV-C hand-off
// bug) and the memory-ordering oracle must flag it — even if the run
// also hangs or corrupts its output.
func TestOracleCatchesSkippedStealFlush(t *testing.T) {
	// A fault-free scenario: the bug is in the protocol, not the faults.
	m := lossyMachine(t, "gwb", fault.Scenario{}, 1)
	m.Kernel.SetDeadline(10_000_000)
	rt := New(m, DTS)
	rt.skipStealFlush = true
	fid := rt.RegisterFunc("fib", 512)
	out := m.Mem.AllocWords(1)
	err := rt.Run(fibProgram(fid, 15, out))
	if m.Oracle.Violations() == 0 {
		t.Fatalf("oracle missed the skipped steal flush (err=%v, out=%d)",
			err, m.Cache.DebugReadWord(out))
	}
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("run error does not surface the oracle: %v", err)
	}
}

// TestQuarantineAfterRepeatedFailures: enough consecutive failures
// against one victim must quarantine it, and victim selection must then
// avoid it (while leaving offline victims choosable for reclaim).
func TestQuarantineAfterRepeatedFailures(t *testing.T) {
	m := lossyMachine(t, "gwb", fault.Scenario{ULIReqDropProb: 0.01}, 1)
	rt := New(m, DTS)
	err := rt.Run(func(c *Ctx) {
		const vid = 3
		// Workers' natural NACKs may have pre-loaded the counter; start
		// the consecutive-failure count from a known state.
		rt.vfails[vid] = 0
		for i := 0; i < quarantineThreshold; i++ {
			c.noteVictimFailure(vid)
		}
		if rt.quarUntil[vid] <= c.Now() {
			t.Error("victim not quarantined after threshold failures")
		}
		if rt.vfails[vid] != 0 {
			t.Error("failure counter not reset on quarantine")
		}
		// A quarantined victim is redrawn away from...
		redrawn := 0
		for i := 0; i < 50; i++ {
			if c.avoidQuarantined(vid) != vid {
				redrawn++
			}
		}
		if redrawn == 0 {
			t.Error("avoidQuarantined never redrew a quarantined victim")
		}
		// ...but an offline one must stay choosable (reclaim path).
		rt.offlineMark[vid] = true
		if c.avoidQuarantined(vid) != vid {
			t.Error("offline victim redrawn; stranded work would never be reclaimed")
		}
		rt.offlineMark[vid] = false
	})
	if err != nil {
		t.Fatal(err)
	}
}
