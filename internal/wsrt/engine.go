package wsrt

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/trace"
)

// This file implements paper Figure 3: the deque primitives and the
// spawn/wait engine, which reads its variant's discipline row.

// --- deque primitives (all accesses go through simulated memory) ---

// enq pushes a task on the tail (owner side, LIFO end).
func (c *Ctx) enq(d deque, task mem.Addr) {
	c.core.Compute(c.rt.Costs.DequeOp)
	tail, head := c.core.Load2(d.tailAddr(), d.headAddr())
	if tail-head >= dequeCapacity {
		panic("wsrt: task deque overflow")
	}
	c.core.Store(d.slotAddr(tail), uint64(task))
	c.core.Store(d.tailAddr(), tail+1)
}

// deq pops from the tail (owner side, LIFO order); 0 when empty.
func (c *Ctx) deq(d deque) mem.Addr {
	c.core.Compute(c.rt.Costs.DequeOp)
	tail, head := c.core.Load2(d.tailAddr(), d.headAddr())
	if head == tail {
		return 0
	}
	t := c.core.Load(d.slotAddr(tail - 1))
	c.core.Store(d.tailAddr(), tail-1)
	return mem.Addr(t)
}

// otherThread draws a thread other than this one, uniformly.
func (c *Ctx) otherThread() int {
	v := c.rng.Intn(c.rt.nthreads - 1)
	if v >= c.tid {
		v++
	}
	return v
}

// avoidQuarantined redraws a few times when the picked victim is
// quarantined (persistently failing but not known offline — offline
// victims must stay choosable so their stranded work gets reclaimed).
// Bounded redraws keep victim selection cheap and preserve liveness
// when every victim is quarantined at once. It runs in a step (see
// chooseVictim), so offlineMark is read once the ops before it issued.
func (c *Ctx) avoidQuarantined(v int) int {
	rt := c.rt
	now := c.core.Now()
	for retry := 0; retry < 3; retry++ {
		if rt.offlineMark[v] || now >= rt.quarUntil[v] {
			return v
		}
		v = c.otherThread()
	}
	return v
}

// --- spawn: Figure 3 lines 1-7 ---

// acquire takes row's guard on deque d, then invalidates if the row
// fences. The lock is a test-and-set built from amo_or. It blocks: the
// scheduling loop's own form is lock.
func (c *Ctx) acquire(row *discipline, d deque) {
	switch row.guard {
	case lockGuard:
		for c.core.Amo(d.lockAddr(), cache.AmoOr, 1, 0) != 0 {
			c.core.Compute(4) // spin backoff
		}
	case maskULI:
		c.core.ULIDisable()
	}
	if row.fence {
		c.core.Invalidate()
	}
}

// release drops row's guard on deque d, flushing first if flush is set.
// The lock word is cleared with an AMO, whose L2/ownership handling
// makes the release visible.
func (c *Ctx) release(row *discipline, d deque, flush bool) {
	if flush {
		c.core.Flush()
	}
	switch row.guard {
	case lockGuard:
		c.core.AmoQueued(d.lockAddr(), cache.AmoAnd, 0, 0)
	case maskULI:
		c.core.ULIEnable()
	}
}

// spawnTask enqueues a task descriptor on the thread's own deque.
func (c *Ctx) spawnTask(t mem.Addr) {
	rt := c.rt
	// SetFunc drains newTask's stores, so the count moves at the cycle
	// it would without the queue.
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	rt.Stats.Spawns++
	c.trace(trace.Spawn, uint64(t))
	c.core.Compute(c.rt.Costs.Spawn)
	d := rt.deques[c.tid]
	c.acquire(&rt.disc, d)
	c.enq(d, t)
	c.release(&rt.disc, d, rt.disc.fence)
}

// noteVictimFailure feeds the quarantine: enough consecutive NACKs or
// timeouts against one victim (across all thieves) and victim selection
// stops wasting round trips on it for a while.
func (c *Ctx) noteVictimFailure(vid int) {
	rt := c.rt
	if !rt.lossy {
		return
	}
	rt.vfails[vid]++
	if rt.vfails[vid] >= quarantineThreshold {
		rt.quarUntil[vid] = c.core.Now() + quarantineCycles
		rt.vfails[vid] = 0
	}
}

// uliHandler is the DTS steal handler (Fig 3(c) lines 47-54). It runs
// on the victim's thread at an interrupt boundary; the returned payload
// is the response message's single word.
func (c *Ctx) uliHandler(thief int) uint64 {
	c.core.Compute(c.rt.Costs.HandlerBody)
	t := c.deq(c.rt.deques[c.tid])
	if t == 0 {
		return 0
	}
	// Mark the parent so it switches to AMO-based synchronization
	// (plain store: the parent task runs on this very thread, §IV-C).
	parent := mem.Addr(c.core.Load(t + descParent*8))
	if parent != 0 {
		c.core.Store(parent+descStolen*8, 1)
	}
	if c.rt.disc.stealFlush {
		c.core.Flush()
	}
	return uint64(t)
}

// salvageTask takes ownership of a task from a stale steal ACK: the
// victim handed it over, but this thief had already timed out, so the
// response register was never read. It is enqueued locally, marked
// cross-core so the eventual pop runs it with the stolen-task
// discipline. Runs at Poll under the unit's handling latch (incoming
// requests are NACKed for its duration).
func (c *Ctx) salvageTask(t mem.Addr) {
	rt := c.rt
	rt.Stats.Salvages++
	if rec := rt.tasks[t]; rec != nil {
		rec.crossCore = true
	}
	c.enq(rt.deques[c.tid], t)
}

// restituteTask returns a task this (victim) core handed over in an ACK
// that was then dropped: the thief never got it, so the victim keeps
// it. The handler already published the parent's stolen flag — that is
// only conservative (the parent falls back to AMO-based joining) — and
// the task's data never left this core, so it re-enters the own deque
// as an ordinary local task. Runs at Poll under the handling latch.
func (c *Ctx) restituteTask(t mem.Addr) {
	c.enq(c.rt.deques[c.tid], t)
}

// execLocal executes a task popped from the own deque, honouring the
// cross-core mark salvaged tasks carry.
func (c *Ctx) execLocal(t mem.Addr) {
	if rec := c.rt.tasks[t]; rec != nil && rec.crossCore {
		rec.crossCore = false
		c.executeTask(t, true)
		return
	}
	c.executeTask(t, false)
}

// enterOffline performs the fail-stop transition: flush dirty state (a
// controlled shutdown — results of tasks this core already executed
// stay visible), mark the core dead for thieves, and record when
// degraded mode began.
func (c *Ctx) enterOffline() {
	rt := c.rt
	c.core.Flush()
	now := c.core.Now() // thieves read offlineMark: mark after the flush
	rt.offlineMark[c.tid] = true
	rt.Stats.OfflineCores++
	if rt.degradedSince == 0 {
		rt.degradedSince = now
	}
	c.trace(trace.Offline, 0)
}

// --- task execution and joining ---

// executeTask runs a dequeued or stolen task, then joins it to its
// parent.
func (c *Ctx) executeTask(t mem.Addr, stolen bool) {
	rt := c.rt
	rec := rt.tasks[t]
	if rec == nil {
		panic("wsrt: executing unknown task (corrupted deque or stale steal)")
	}
	if stolen {
		rt.Stats.StolenExec++
	} else {
		rt.Stats.LocalExecs++
	}
	fence := stolen && rt.disc.stolenFence
	if fence {
		c.core.Invalidate()
	}

	c.trace(trace.ExecStart, uint64(t))
	prev := c.cur
	c.cur = t
	c.core.SetFunc(rec.fid, rt.footprint(rec.fid))
	c.core.Compute(c.rt.Costs.TaskProlog)
	rec.body(c)
	c.cur = prev
	c.trace(trace.ExecEnd, uint64(t))
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))

	parent := mem.Addr(c.core.Load(t + descParent*8))
	if fence {
		c.core.Flush()
	}
	if parent != 0 {
		rcAddr := parent + descRC*8
		if (stolen && rt.disc.join != never) || c.holds(rt.disc.join, parent) {
			c.core.AmoQueued(rcAddr, cache.AmoAdd, ^uint64(0), 0) // amo_sub(rc, 1)
		} else {
			rc := c.core.Load(rcAddr)
			c.core.Store(rcAddr, rc-1)
		}
	}
	c.freeTask(t)
}

// holds reports whether an operation that runs under w runs for the
// task whose descriptor is p.
func (c *Ctx) holds(w when, p mem.Addr) bool {
	switch w {
	case always:
		return true
	case ifStolen:
		return c.core.Load(p+descStolen*8) != 0
	}
	return false
}

// wait blocks until all of p's children have joined, executing local
// and stolen tasks meanwhile (Fig 3's wait functions).
func (c *Ctx) wait(p mem.Addr) { c.waitDeadline(p, 0) }

// waitDeadline is wait with an optional bail-out: when deadline is
// nonzero and the clock reaches it while children are still
// outstanding, the loop stops and reports false (the open-system
// horizon cutoff). A zero deadline is exactly wait — the extra Go-side
// branch costs no simulated cycles, so the hot path is unchanged.
func (c *Ctx) waitDeadline(p mem.Addr, deadline sim.Time) bool {
	rt := c.rt
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	drained := c.schedule((*Ctx).waitTop, p, deadline) == loopDone
	if c.holds(rt.disc.waitInv, p) {
		c.core.Invalidate()
	}
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	return drained
}

// workerLoop is the top-level scheduling loop of a non-main thread: it
// executes local work (appearing after it steals a spawner) and steals
// until the program sets the done flag, or until its core fail-stops.
func (c *Ctx) workerLoop() {
	c.core.SetFunc(fidRuntime, c.rt.footprint(fidRuntime))
	if c.schedule((*Ctx).workerTop, 0, 0) == loopOffline {
		c.enterOffline()
	}
}

// idleBackoff burns exponentially growing compute after consecutive
// failed steals (capped), keeping idle workers from saturating the L2
// banks that hold the done flag and victims' locks — the same backoff
// production work-stealing runtimes use.
func (c *Ctx) idleBackoff() {
	costs := &c.rt.Costs
	n := costs.IdleBackoff << c.failStreak
	if n > costs.IdleBackoffCap {
		n = costs.IdleBackoffCap
	} else if c.failStreak < costs.IdleBackoffShift {
		c.failStreak++
	}
	if c.rt.lossy && n > 1 {
		// Under loss, retries of many thieves against few live victims
		// tend to synchronize (they all timed out together); jitter the
		// backoff to spread the retry storm.
		n += c.rng.Intn(n)
	}
	// Spin in short chunks: every chunk boundary is an interrupt point,
	// so a backing-off worker still services incoming ULI steal requests
	// promptly (a monolithic 4K-cycle block would hold DTS requests
	// hostage for its whole duration).
	c.core.Spin(n, 128)
}
