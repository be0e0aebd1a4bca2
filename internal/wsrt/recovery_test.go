package wsrt

import (
	"strings"
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/prog"
	"bigtiny/internal/uli"
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

// handCtx is a scheduler context for a hand-driven thread: a test
// spawns the thread's body itself instead of running the worker loop.
func handCtx(rt *RT, cc *cpu.Core) *Ctx {
	return &Ctx{rt: rt, env: prog.NewSimEnv(cc, rt.M.Mem), core: cc, tid: cc.ID}
}

// TestReclaimTakesLateAck: a task can also be stranded in a dead
// core's salvage mailbox, when a steal ACK reached its thief after the
// thief's timeout and the thief fail-stopped before it polled again.
// A reclaimer must take the task from the mailbox. Three hand-driven
// threads stage it. Thread 2 steals from thread 1 while thread 1 spins
// with no interrupt point, times out and dies. Thread 1's handler then
// hands its task over in a late ACK, and thread 3 reclaims it.
func TestReclaimTakesLateAck(t *testing.T) {
	// Lossy in name only, so that the steal timeout is armed.
	m := lossyMachine(t, "gwb", fault.Scenario{ULIRespDropProb: 1e-12}, 1)
	rt := New(m, DTS)
	const victim, dead, reclaimer = 1, 2, 3
	var planted, got mem.Addr
	m.Spawn(victim, func(cc *cpu.Core) {
		c := handCtx(rt, cc)
		m.ULI.Unit(victim).SetHandler(c.uliHandler)
		planted = c.newTask(fidRuntime, func(*Ctx) {})
		c.enq(rt.deques[victim], planted)
		cc.ULIEnable()
		cc.Spin(2*uli.DefaultStealTimeout, 2*uli.DefaultStealTimeout)
		cc.Spin(100, 1) // interrupt points: the buffered request is handled
		cc.ULIDisable()
	})
	m.Spawn(dead, func(cc *cpu.Core) {
		cc.IdleUntil(500) // the victim has enabled ULIs and is spinning
		if _, ok := cc.ULISendReq(victim); ok {
			t.Error("a steal from a victim that cannot be interrupted did not time out")
		}
		rt.offlineMark[dead] = true
	})
	m.Spawn(reclaimer, func(cc *cpu.Core) {
		cc.IdleUntil(4 * uli.DefaultStealTimeout)
		got = handCtx(rt, cc).reclaimFrom(dead)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if planted == 0 || got != planted {
		t.Fatalf("reclaimed %#x from the dead thief's mailbox, want the late-ACKed task %#x", got, planted)
	}
	if s := m.ULI.Stats; s.LateAcks != 1 || s.Timeouts != 1 {
		t.Fatalf("want one timeout and one late ACK: %+v", s)
	}
}

// TestReclaimFindsDequeEmptied: a reclaimer whose probe saw a stranded
// task can find the deque empty once it holds the lock, when another
// thread took the task in between. Thread 1 plants a task in dead
// thread 2's deque under the deque's lock and takes it back before it
// lets go; thread 3 probes meanwhile, sees the task, and must come
// away with nothing.
func TestReclaimFindsDequeEmptied(t *testing.T) {
	m := lossyMachine(t, "gwb", fault.Scenario{}, 1)
	rt := New(m, DTS)
	const holder, dead, reclaimer = 1, 2, 3
	rt.offlineMark[dead] = true
	d := rt.deques[dead]
	hcc := &disciplines[HCC]
	m.Spawn(holder, func(cc *cpu.Core) {
		c := handCtx(rt, cc)
		c.acquire(hcc, d)
		task := c.newTask(fidRuntime, func(*Ctx) {})
		c.enq(d, task)
		cc.Flush()
		c.Compute(5_000)
		if c.stealHead(d) != task {
			t.Error("the holder did not get its own task back")
		}
		c.release(hcc, d, true)
	})
	m.Spawn(reclaimer, func(cc *cpu.Core) {
		c := handCtx(rt, cc)
		cc.IdleUntil(1_000)
		cc.Invalidate()
		if c.probeEmpty(d) {
			t.Error("the reclaimer's probe missed the planted task")
		}
		if got := c.reclaimFrom(dead); got != 0 {
			t.Errorf("reclaimed %#x from a deque the holder emptied", got)
		}
		if now := cc.Now(); now < 5_000 {
			t.Errorf("the reclaim ended at cycle %d, before the holder let go", now)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
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
	rt.disc.stealFlush = false
	fid := rt.RegisterFunc("fib", 512)
	out := m.Mem.AllocWords(1)
	err := rt.Run(fibProgram(fid, 15, out))
	if m.Oracle.Err() == nil {
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
