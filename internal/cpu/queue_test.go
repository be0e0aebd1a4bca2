package cpu

import (
	"fmt"
	"slices"
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// queueOutcome is everything a ULI request landing mid-queue may touch.
type queueOutcome struct {
	handlerAt, stolenAt, end    sim.Time
	handlerInsts                uint64
	victim, thief               [NumClasses]uint64
	victimInsts, thiefInsts     uint64
	scheduled, fired, fastWaits uint64
	queuedAtHandler             int
	resumes                     uint64
}

// sendReq is a steal request a thread takes outside a scheduling loop:
// queued, drained, then read.
func (c *Core) sendReq(victim int) (payload uint64, ok bool) {
	c.ULISendQueued(victim)
	c.Drain()
	payload, ack := c.Val2()
	return payload, ack != 0
}

// queueRun has core 0 queue Compute and Store ops — stores to fresh
// lines, so the store buffer fills and the queue drains through real
// waits — while core 1 sends it a ULI steal request part-way through.
// The handler computes and loads. blocking issues every op on the spot,
// as under sim.KernelParanoid, but keeps the kernel's fast path, so the
// two runs must agree on every event count too.
func queueRun(t *testing.T, blocking bool) queueOutcome {
	t.Helper()
	k, cores, sys := spinRig(TinyConfig(), nil)
	cores[0].direct, cores[1].direct = blocking, blocking
	base := sys.Mem().Alloc(256 * mem.LineSize)
	var out queueOutcome
	k.NewProc("victim", 0, func(p *sim.Proc) {
		c := cores[0]
		c.Bind(p)
		c.ULI.SetHandler(func(thief int) uint64 {
			out.handlerAt, out.handlerInsts, out.queuedAtHandler = c.Now(), c.Insts, c.qLen
			c.Compute(9)
			c.Load(base)
			return 42
		})
		c.ULIEnable()
		c.SetFunc(1, 2048)
		for i := 0; i < 200; i++ {
			c.Compute(5)
			c.Store(base+mem.Addr(i*mem.LineSize), uint64(i))
		}
		out.end = c.Now()
	})
	k.NewProc("thief", 0, func(p *sim.Proc) {
		c := cores[1]
		c.Bind(p)
		c.Compute(300)
		if v, ok := c.sendReq(0); !ok || v != 42 {
			t.Errorf("steal = %d, %v; want 42, true", v, ok)
		}
		out.stolenAt = c.Now()
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	out.victim, out.victimInsts = cores[0].Cycles, cores[0].Insts
	out.thief, out.thiefInsts = cores[1].Cycles, cores[1].Insts
	out.scheduled, out.fired, out.fastWaits = k.Scheduled(), k.Fired(), k.FastWaits()
	out.resumes = k.Resumes()
	return out
}

// TestULIHandlerRunsAheadOfQueuedOps: a request that arrives while the
// victim has ops queued is delivered at the interrupt boundary blocking
// issue delivers it at — after as many of the victim's instructions, at
// the same cycle — and the handler's own ops go ahead of the queued
// ones. Every cycle, count and event matches blocking issue; only the
// resumes differ.
func TestULIHandlerRunsAheadOfQueuedOps(t *testing.T) {
	queued, blocking := queueRun(t, false), queueRun(t, true)
	// The queue holds the op the handler interrupts; anything more is
	// queued behind it.
	if queued.queuedAtHandler < 2 {
		t.Fatalf("the request landed with %d ops in the queue: none queued behind the interrupted one",
			queued.queuedAtHandler)
	}
	if queued.handlerAt == 0 || queued.handlerAt >= queued.end {
		t.Fatalf("handler ran at %d, victim ended at %d", queued.handlerAt, queued.end)
	}
	if queued.resumes >= blocking.resumes {
		t.Errorf("queued issue resumed %d times, blocking %d", queued.resumes, blocking.resumes)
	}
	queued.queuedAtHandler, queued.resumes = blocking.queuedAtHandler, blocking.resumes
	if fmt.Sprintf("%+v", queued) != fmt.Sprintf("%+v", blocking) {
		t.Fatalf("queued and blocking issue diverge:\nqueued   %+v\nblocking %+v", queued, blocking)
	}
}

// formCase is one op form that returns nothing the thread branches on
// (or, for Load2, one value pair): the thread waits for it waits times
// (none, or one for Load2), where blocking issue waits out each op.
type formCase struct {
	name  string
	waits uint64
	do    func(c *Core, a, b mem.Addr) (uint64, uint64)
}

var formCases = []formCase{
	{"Invalidate", 0, func(c *Core, _, _ mem.Addr) (uint64, uint64) { c.Invalidate(); return 0, 0 }},
	{"Flush", 0, func(c *Core, _, _ mem.Addr) (uint64, uint64) { c.Flush(); return 0, 0 }},
	{"ULIDisable", 0, func(c *Core, _, _ mem.Addr) (uint64, uint64) { c.ULIDisable(); return 0, 0 }},
	{"ULIEnable", 0, func(c *Core, _, _ mem.Addr) (uint64, uint64) { c.ULIEnable(); return 0, 0 }},
	{"Spin", 0, func(c *Core, _, _ mem.Addr) (uint64, uint64) { c.Spin(300, 64); return 0, 0 }},
	{"AmoQueued", 0, func(c *Core, a, _ mem.Addr) (uint64, uint64) {
		c.AmoQueued(a, cache.AmoAdd, 5, 0)
		return 0, 0
	}},
	{"Load2", 1, func(c *Core, a, b mem.Addr) (uint64, uint64) { return c.Load2(a, b) }},
	{"Copy", 0, func(c *Core, a, b mem.Addr) (uint64, uint64) { c.Copy(b, a); return 0, 0 }},
}

// formOutcome is everything a form may touch.
type formOutcome struct {
	cycles                      [NumClasses]uint64
	insts                       uint64
	end, handlerAt              sim.Time
	sbuf                        []sim.Time
	v1, v2, a, b                uint64
	scheduled, fired, fastWaits uint64
	betweenHalves               bool
	resumes                     uint64
}

// formRun has core 0 queue a few stores to fresh lines (the store
// buffer holds them, so a fence waits) and then issue the form on words
// a (17) and b (23), while core 1's thread ticks every cycle, so each
// of core 0's waits switches threads. With sendAt > 0 core 1 instead sends core 0 a
// ULI request at that cycle; the handler loads, overwriting the value
// register, and reports whether it ran between a Copy's load and store.
func formRun(t *testing.T, f formCase, blocking bool, sendAt sim.Time) formOutcome {
	t.Helper()
	k, cores, sys := spinRig(TinyConfig(), nil)
	cores[0].direct, cores[1].direct = blocking, blocking
	base := sys.Mem().Alloc(64 * mem.LineSize)
	a, b := base+mem.Addr(40*mem.LineSize), base+mem.Addr(50*mem.LineSize)
	sys.Mem().WriteWord(a, 17)
	sys.Mem().WriteWord(b, 23)
	var out formOutcome
	k.NewProc("core", 0, func(p *sim.Proc) {
		c := cores[0]
		c.Bind(p)
		c.ULI.SetHandler(func(int) uint64 {
			out.handlerAt = c.Now()
			o := &c.q[c.qHead]
			out.betweenHalves = c.qLen > 0 && o.kind == opStore && o.n == 1
			c.Load2(base, base+8)
			c.Load(base + 16)
			return 1
		})
		c.ULIEnable()
		c.SetFunc(1, 2048)
		for i := 0; i < 4; i++ {
			c.Compute(3)
			c.Store(base+mem.Addr(i*mem.LineSize), uint64(i))
		}
		before := k.Resumes()
		out.v1, out.v2 = f.do(c, a, b)
		out.resumes = k.Resumes() - before
		c.Drain()
		out.sbuf = slices.Clone(c.sbuf[:c.sbLen])
		slices.Sort(out.sbuf)
		c.Compute(5)
		out.end = c.Now()
	})
	k.NewProc("neighbour", 0, func(p *sim.Proc) {
		c := cores[1]
		c.Bind(p)
		if sendAt > 0 {
			p.WaitUntil(sendAt)
			c.sendReq(0)
		}
		for i := 0; i < 3000; i++ {
			p.Delay(1)
		}
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	out.cycles, out.insts = cores[0].Cycles, cores[0].Insts
	out.a, out.b = sys.DebugReadWord(a), sys.DebugReadWord(b)
	out.scheduled, out.fired, out.fastWaits = k.Scheduled(), k.Fired(), k.FastWaits()
	return out
}

// TestQueuedFormsMatchBlocking: each result-free form — and Load2, which
// drains once for its two loads — issues as its blocking ops would: the
// same cycles, instructions, end cycle, store buffer, values and events.
// Only the thread's switches differ: none for a queued form, one for
// Load2. A ULI request that lands between a Copy's load and its store
// runs its handler there, and the store still writes the loaded value.
func TestQueuedFormsMatchBlocking(t *testing.T) {
	for _, f := range formCases {
		t.Run(f.name, func(t *testing.T) {
			queued, blocking := formRun(t, f, false, 0), formRun(t, f, true, 0)
			// A wait switches to the neighbour's thread and back.
			if queued.resumes != 2*f.waits || blocking.resumes <= queued.resumes {
				t.Errorf("the form took %d resumes, want %d (blocking %d)", queued.resumes, 2*f.waits, blocking.resumes)
			}
			queued.resumes = blocking.resumes
			if fmt.Sprintf("%+v", queued) != fmt.Sprintf("%+v", blocking) {
				t.Fatalf("queued and blocking issue diverge:\nqueued   %+v\nblocking %+v", queued, blocking)
			}
		})
	}
	copyCase := formCases[len(formCases)-1]
	between := 0
	for sendAt := sim.Time(1); sendAt < 200; sendAt++ {
		queued, blocking := formRun(t, copyCase, false, sendAt), formRun(t, copyCase, true, sendAt)
		if queued.betweenHalves {
			between++
		}
		queued.resumes, queued.betweenHalves = blocking.resumes, blocking.betweenHalves
		if fmt.Sprintf("%+v", queued) != fmt.Sprintf("%+v", blocking) {
			t.Fatalf("request sent at %d: queued and blocking Copy diverge:\nqueued   %+v\nblocking %+v", sendAt, queued, blocking)
		}
		if queued.b != 17 {
			t.Fatalf("request sent at %d: Copy stored %d, want 17", sendAt, queued.b)
		}
	}
	if between == 0 {
		t.Fatal("no request landed between a Copy's load and its store")
	}
}

// TestOfflineReadsNoClock: without an injector that can take the core's
// lane offline, Offline leaves the queue alone; with one, it drains.
func TestOfflineReadsNoClock(t *testing.T) {
	for _, tc := range []struct {
		faults *fault.Injector
		queued int
	}{
		{nil, 1},
		{fault.NewInjector(fault.Scenario{OfflineAt: 1000, OfflineLane: 3}, 1), 1},
		{fault.NewInjector(fault.Scenario{OfflineAt: 1000, OfflineLane: 0}, 1), 0},
	} {
		k, core, _ := rig(t, TinyConfig(), cache.MESI)
		core.Faults, core.FaultLane = tc.faults, 0
		run(t, k, core, func() {
			core.Compute(10)
			if core.Offline() {
				t.Error("core offline at cycle 0")
			}
			if core.qLen != tc.queued {
				t.Errorf("%d ops queued after Offline, want %d", core.qLen, tc.queued)
			}
		})
	}
}
