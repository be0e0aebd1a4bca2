package wsrt

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/trace"
)

// This file is the scheduling loop of paper Figure 3 — the worker loop
// and wait's loop: poll the done flag or the reference count, pop the
// own deque, try one steal, back off — as one step machine per Ctx,
// which cpu.Core.Drive runs. A step runs the Go code the loop runs
// between two values it waits for, posts the ops up to the next one,
// and names the step that reads it (goTo). Queued, the steps run inside
// the core's drain chain, at the dispatch positions where the thread
// would have run that code, so a failed round costs the thread no
// switch: it is switched to only to run a task a round found, to take a
// due interrupt, and when the loop ends. Under sim.KernelParanoid the
// same steps run on the thread, and every op blocks.
//
// A step reads the values of its ops from the core's registers (Val,
// Val2), reads the clock with Core.Now (its queue is empty, so that
// drains nothing), and never drains, waits or blocks.

// step is one state of the scheduling loop; it reports whether the loop
// goes on.
type step func(*Ctx) bool

// outcome is how a run of the scheduling loop ended.
type outcome uint8

const (
	foundLocal   outcome = iota // c.got, popped from the own deque
	foundStolen                 // c.got, stolen
	loopDone                    // the done flag is set, or the count is zero
	loopDeadline                // waitDeadline's deadline came first
	loopOffline                 // the core fail-stopped
)

// schedule runs the scheduling loop from top until a round ends it,
// running each task a round finds on the thread, and reports how it
// ended. p and deadline are waitDeadline's (zero in the worker loop);
// they are set again after each task, whose own waits run the loop
// nested.
func (c *Ctx) schedule(top step, p mem.Addr, deadline sim.Time) outcome {
	for {
		c.pc, c.top, c.wp, c.deadline = top, top, p, deadline
		c.core.Drive((*loop)(c))
		switch c.out {
		case foundLocal:
			c.execLocal(c.got)
		case foundStolen:
			c.executeTask(c.got, true)
			c.failStreak = 0
		default:
			return c.out
		}
	}
}

// loop is a Ctx as the cpu.Loop that Drive runs; converting c to it
// allocates nothing.
type loop Ctx

// Step runs the step c.pc names.
func (l *loop) Step() bool {
	c := (*Ctx)(l)
	return c.pc(c)
}

// goTo makes s the next step.
func (c *Ctx) goTo(s step) bool {
	c.pc = s
	return true
}

// end ends the loop with out.
func (c *Ctx) end(out outcome) bool {
	c.out = out
	return false
}

// --- the tops of the two loops ---

// workerTop starts a worker's round. The fail-stop check comes first:
// the core dies between tasks, never mid-task (its current task's
// nested joins must complete or the program could never finish). Then
// the done flag is polled (see discipline.doneAMOEvery).
func (c *Ctx) workerTop() bool {
	if c.core.Offline() {
		return c.end(loopOffline)
	}
	rt := c.rt
	iter := c.iter
	c.iter++
	if n := rt.disc.doneAMOEvery; n == 0 {
		c.core.LoadQueued(rt.doneAddr)
	} else if iter%n == 0 {
		c.core.AmoQueued(rt.doneAddr, cache.AmoOr, 0, 0)
	} else {
		return c.goTo((*Ctx).popLocal)
	}
	return c.goTo((*Ctx).donePolled)
}

// donePolled ends the worker loop once the done flag is set.
func (c *Ctx) donePolled() bool {
	if c.core.Val() != 0 {
		return c.end(loopDone)
	}
	return c.goTo((*Ctx).popLocal)
}

// waitTop starts a round of wait's loop: it reads the waited-for task's
// reference count, with an AMO when discipline.readRC holds.
func (c *Ctx) waitTop() bool {
	switch c.rt.disc.readRC {
	case always:
		return c.readRC(true)
	case ifStolen:
		c.core.LoadQueued(c.wp + descStolen*8)
		return c.goTo((*Ctx).stolenRead)
	}
	return c.readRC(false)
}

// stolenRead reads the count with an AMO if a child was stolen.
func (c *Ctx) stolenRead() bool { return c.readRC(c.core.Val() != 0) }

// readRC posts the read of the count.
func (c *Ctx) readRC(amo bool) bool {
	rc := c.wp + descRC*8
	if amo {
		c.core.AmoQueued(rc, cache.AmoOr, 0, 0)
	} else {
		c.core.LoadQueued(rc)
	}
	return c.goTo((*Ctx).rcRead)
}

// rcRead ends the wait once the count is zero, or once the deadline has
// passed with children still out; otherwise the round goes on.
func (c *Ctx) rcRead() bool {
	if c.core.Val() == 0 {
		return c.end(loopDone)
	}
	if c.deadline != 0 && c.core.Now() >= c.deadline {
		return c.end(loopDeadline)
	}
	c.core.Compute(c.rt.Costs.WaitIter)
	return c.goTo((*Ctx).popLocal)
}

// --- deque access under a discipline row ---

// lock takes row's guard on deque d (acquire, as steps), then goes to
// then. The lock is a test-and-set built from amo_or.
func (c *Ctx) lock(row *discipline, d deque, then step) bool {
	c.row, c.d, c.locked = row, d, then
	switch row.guard {
	case lockGuard:
		c.core.AmoQueued(d.lockAddr(), cache.AmoOr, 1, 0)
		return c.goTo((*Ctx).lockTried)
	case maskULI:
		c.core.ULIDisable()
	}
	return c.fenced()
}

// lockTried spins until the lock was free.
func (c *Ctx) lockTried() bool {
	if c.core.Val() != 0 {
		c.core.Compute(4) // spin backoff
		c.core.AmoQueued(c.d.lockAddr(), cache.AmoOr, 1, 0)
		return true
	}
	return c.fenced()
}

// fenced invalidates after the guard if the row fences.
func (c *Ctx) fenced() bool {
	if c.row.fence {
		c.core.Invalidate()
	}
	return c.goTo(c.locked)
}

// unlock drops the guard (release), then goes to then.
func (c *Ctx) unlock(flush bool, then step) bool {
	c.release(c.row, c.d, flush)
	return c.goTo(then)
}

// --- the own deque ---

// popLocal pops from the thread's own deque.
func (c *Ctx) popLocal() bool {
	return c.lock(&c.rt.disc, c.rt.deques[c.tid], (*Ctx).popTail)
}

// popTail, tailRead and tailTaken are deq: the owner's pop from the
// tail (LIFO).
func (c *Ctx) popTail() bool {
	c.core.Compute(c.rt.Costs.DequeOp)
	c.core.Load2Queued(c.d.tailAddr(), c.d.headAddr())
	return c.goTo((*Ctx).tailRead)
}

func (c *Ctx) tailRead() bool {
	tail, head := c.core.Val2()
	if head == tail {
		c.got = 0
		return c.unlock(c.row.fence, (*Ctx).popped)
	}
	c.idx = tail - 1
	c.core.LoadQueued(c.d.slotAddr(c.idx))
	return c.goTo((*Ctx).tailTaken)
}

func (c *Ctx) tailTaken() bool {
	c.got = mem.Addr(c.core.Val())
	c.core.Store(c.d.tailAddr(), c.idx)
	return c.unlock(c.row.fence, (*Ctx).popped)
}

// popped runs a popped task on the thread, or starts a steal: the try
// is counted once the release has issued, then the victim is chosen.
func (c *Ctx) popped() bool {
	if c.got != 0 {
		return c.end(foundLocal)
	}
	c.rt.Stats.StealTries++
	c.core.Compute(c.rt.Costs.VictimSelect)
	return c.goTo((*Ctx).chooseVictim)
}

// --- stealing ---

// chooseVictim picks a uniformly random other thread, the paper's
// "random victim selection".
func (c *Ctx) chooseVictim() bool {
	rt := c.rt
	v := c.tid // single-threaded: only the (empty) own deque exists
	if rt.nthreads > 1 {
		v = c.otherThread()
		if rt.lossy {
			v = c.avoidQuarantined(v)
		}
	}
	c.vid = v
	c.trace(trace.StealTry, uint64(v))
	return c.goTo((*Ctx).stealFrom)
}

// stealFrom performs one steal against victim c.vid: from its deque in
// shared memory (Fig. 3a/b lines 19-30, with a lock-free emptiness
// probe first) or by uli_send_req and a mailbox read (Fig. 3c lines
// 24-27), which parks the round until the response or the timeout.
func (c *Ctx) stealFrom() bool {
	rt := c.rt
	if !rt.disc.uli {
		return c.stealShared(&rt.disc, rt.deques[c.vid])
	}
	if rt.lossy && rt.offlineMark[c.vid] {
		// The victim's scheduling loop is dead: its ULI unit only
		// NACKs. Go in through shared memory instead.
		return c.goTo((*Ctx).reclaim)
	}
	c.core.ULISendQueued(c.vid)
	return c.goTo((*Ctx).answered)
}

// answered reads the ULI response.
func (c *Ctx) answered() bool {
	rt := c.rt
	payload, ack := c.core.Val2()
	c.got = 0
	if ack == 0 {
		rt.Stats.StealNacks++
		c.noteVictimFailure(c.vid)
	} else if payload != 0 {
		rt.Stats.StealHits++
		c.got = mem.Addr(payload)
	}
	return c.goTo((*Ctx).stealt)
}

// stealShared takes the head task of deque d under row's discipline.
// It first checks the deque without taking the guard, with plain loads
// of head and tail (see discipline.probeInv).
func (c *Ctx) stealShared(row *discipline, d deque) bool {
	c.row, c.d = row, d
	if row.probeInv {
		c.core.Invalidate()
	}
	c.core.Compute(2)
	c.core.Load2Queued(d.headAddr(), d.tailAddr())
	return c.goTo((*Ctx).probed)
}

func (c *Ctx) probed() bool {
	if head, tail := c.core.Val2(); head == tail {
		c.got = 0
		return c.goTo((*Ctx).stoleShared)
	}
	return c.lock(c.row, c.d, (*Ctx).takeHead)
}

// takeHead, headRead and headTaken are a thief's pop from the head
// (FIFO), under the guard.
func (c *Ctx) takeHead() bool {
	c.core.Compute(c.rt.Costs.DequeOp)
	c.core.Load2Queued(c.d.headAddr(), c.d.tailAddr())
	return c.goTo((*Ctx).headRead)
}

func (c *Ctx) headRead() bool {
	head, tail := c.core.Val2()
	if head == tail {
		c.got = 0
		return c.unlock(c.row.stealFlush, (*Ctx).stoleShared)
	}
	c.idx = head
	c.core.LoadQueued(c.d.slotAddr(head))
	return c.goTo((*Ctx).headTaken)
}

func (c *Ctx) headTaken() bool {
	c.got = mem.Addr(c.core.Val())
	c.core.Store(c.d.headAddr(), c.idx+1)
	return c.unlock(c.row.stealFlush, (*Ctx).stealReleased)
}

// stealReleased counts a hit once the release has issued.
func (c *Ctx) stealReleased() bool {
	c.rt.Stats.StealHits++
	return c.goTo((*Ctx).stoleShared)
}

// stoleShared ends a shared-memory steal; under ULI it was a reclaim.
func (c *Ctx) stoleShared() bool {
	if c.rt.disc.uli {
		return c.goTo((*Ctx).reclaimed)
	}
	return c.goTo((*Ctx).stealt)
}

// reclaim takes stranded work from a fail-stopped victim. The victim's
// deque is private under DTS, but it lives in shared memory; with the
// owner dead, reclaimers coordinate among themselves using the deque's
// lock line (allocated but unused by the DTS variant) and the full HCC
// steal discipline. Tasks can also be stranded in the dead core's ULI
// salvage mailbox (an ACK that arrived after its last timeout); those
// are rescued first via a memory-mapped mailbox read.
func (c *Ctx) reclaim() bool {
	rt := c.rt
	if p, ok := rt.M.ULI.Unit(c.vid).TakeLate(); ok && p != 0 {
		rt.Stats.StealHits++
		c.got = mem.Addr(p)
		return c.goTo((*Ctx).stealt)
	}
	return c.stealShared(&disciplines[HCC], rt.deques[c.vid])
}

// reclaimed publishes a reclaimed task's steal: the dead owner can no
// longer set its parents' stolen flags from the inside (the DTS
// plain-store optimization needs the parent on the victim's own
// thread), so the reclaimer sets it coherently.
func (c *Ctx) reclaimed() bool {
	if c.got == 0 {
		return c.goTo((*Ctx).stealt)
	}
	c.core.LoadQueued(c.got + descParent*8)
	return c.goTo((*Ctx).parentRead)
}

func (c *Ctx) parentRead() bool {
	if parent := mem.Addr(c.core.Val()); parent != 0 {
		c.core.AmoQueued(parent+descStolen*8, cache.AmoOr, 1, 0)
	}
	return c.goTo((*Ctx).stealt)
}

// stealt ends a steal: a stolen task runs on the thread; a miss backs
// off and starts the next round.
func (c *Ctx) stealt() bool {
	rt := c.rt
	t := c.got
	if t != 0 && rt.lossy {
		rt.vfails[c.vid] = 0
		if rt.offlineMark[c.vid] {
			rt.Stats.Reclaims++
			c.trace(trace.Reclaim, uint64(t))
		}
	}
	if t != 0 {
		c.trace(trace.StealHit, uint64(t))
		return c.end(foundStolen)
	}
	c.trace(trace.StealMiss, uint64(c.vid))
	c.idleBackoff()
	return c.goTo(c.top)
}
