package cpu

import (
	"fmt"
	"testing"

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
		if v, ok := c.ULISendReq(0); !ok || v != 42 {
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
