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

// stealHead pops from the head (thief side, FIFO order); 0 when empty.
func (c *Ctx) stealHead(d deque) mem.Addr {
	c.core.Compute(c.rt.Costs.DequeOp)
	head, tail := c.core.Load2(d.headAddr(), d.tailAddr())
	if head == tail {
		return 0
	}
	t := c.core.Load(d.slotAddr(head))
	c.core.Store(d.headAddr(), head+1)
	return mem.Addr(t)
}

// chooseVictim picks a uniformly random other thread, the paper's
// "random victim selection".
func (c *Ctx) chooseVictim() int {
	c.core.Compute(c.rt.Costs.VictimSelect)
	if c.rt.nthreads == 1 {
		return c.tid // single-threaded: only the (empty) own deque exists
	}
	v := c.otherThread()
	if c.rt.lossy {
		v = c.avoidQuarantined(v)
	}
	return v
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
// when every victim is quarantined at once.
func (c *Ctx) avoidQuarantined(v int) int {
	rt := c.rt
	// The clock first: it drains the core's queued ops, so offlineMark is
	// read at the cycle it would be without the queue.
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
// fences. The lock is a test-and-set built from amo_or.
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

// popLocal dequeues from the thread's own deque.
func (c *Ctx) popLocal() mem.Addr {
	rt := c.rt
	d := rt.deques[c.tid]
	c.acquire(&rt.disc, d)
	t := c.deq(d)
	c.release(&rt.disc, d, rt.disc.fence)
	return t
}

// probeEmpty checks a victim's deque without taking its guard, with
// plain loads of head and tail (see discipline.probeInv).
func (c *Ctx) probeEmpty(d deque) bool {
	c.core.Compute(2)
	head, tail := c.core.Load2(d.headAddr(), d.tailAddr())
	return head == tail
}

// trySteal attempts one steal per the variant; returns the stolen task
// descriptor or 0.
func (c *Ctx) trySteal() mem.Addr {
	rt := c.rt
	c.core.Drain() // the queued release and backoff, before a dumped counter moves
	rt.Stats.StealTries++
	vid := c.chooseVictim()
	c.trace(trace.StealTry, uint64(vid))
	t := c.stealFrom(vid)
	if t != 0 && rt.lossy {
		rt.vfails[vid] = 0
		if rt.offlineMark[vid] {
			rt.Stats.Reclaims++
			c.trace(trace.Reclaim, uint64(t))
		}
	}
	if t != 0 {
		c.trace(trace.StealHit, uint64(t))
	} else {
		c.trace(trace.StealMiss, uint64(vid))
	}
	return t
}

// stealFrom performs one steal against victim vid: from its deque in
// shared memory (Fig. 3a/b lines 19-30, with a lock-free emptiness
// probe first) or by uli_send_req and a mailbox read (Fig. 3c lines
// 24-27).
func (c *Ctx) stealFrom(vid int) mem.Addr {
	rt := c.rt
	if !rt.disc.uli {
		return c.stealShared(&rt.disc, rt.deques[vid])
	}
	if rt.lossy && rt.offlineMark[vid] {
		// The victim's scheduling loop is dead: its ULI unit only
		// NACKs. Go in through shared memory instead.
		return c.reclaimFrom(vid)
	}
	payload, ok := c.core.ULISendReq(vid)
	if !ok {
		rt.Stats.StealNacks++
		c.noteVictimFailure(vid)
		return 0
	}
	if payload != 0 {
		rt.Stats.StealHits++
	}
	return mem.Addr(payload)
}

// stealShared takes the head task of deque d under row's discipline.
func (c *Ctx) stealShared(row *discipline, d deque) mem.Addr {
	if row.probeInv {
		c.core.Invalidate()
	}
	if c.probeEmpty(d) {
		return 0
	}
	c.acquire(row, d)
	t := c.stealHead(d)
	c.release(row, d, row.stealFlush)
	if t != 0 {
		c.core.Drain() // the queued release, before a dumped counter moves
		c.rt.Stats.StealHits++
	}
	return t
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

// reclaimFrom takes stranded work from a fail-stopped victim. The
// victim's deque is private under DTS, but it lives in shared memory;
// with the owner dead, reclaimers coordinate among themselves using the
// deque's lock line (allocated but unused by the DTS variant) and the
// full HCC steal discipline. Tasks can also be stranded in the dead
// core's ULI salvage mailbox (an ACK that arrived after its last
// timeout); those are rescued first via a memory-mapped mailbox read.
func (c *Ctx) reclaimFrom(vid int) mem.Addr {
	rt := c.rt
	if p, ok := rt.M.ULI.Unit(vid).TakeLate(); ok && p != 0 {
		rt.Stats.StealHits++
		return mem.Addr(p)
	}
	t := c.stealShared(&disciplines[HCC], rt.deques[vid])
	if t == 0 {
		return 0
	}
	// The dead owner can no longer set its parents' stolen flags from
	// the inside (the DTS plain-store optimization needs the parent on
	// the victim's own thread); publish the steal coherently instead.
	parent := mem.Addr(c.core.Load(t + descParent*8))
	if parent != 0 {
		c.core.Amo(parent+descStolen*8, cache.AmoOr, 1, 0)
	}
	return t
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

// readRC reads the waiting task's reference count.
func (c *Ctx) readRC(p mem.Addr) uint64 {
	rcAddr := p + descRC*8
	if c.holds(c.rt.disc.readRC, p) {
		return c.core.Amo(rcAddr, cache.AmoOr, 0, 0)
	}
	return c.core.Load(rcAddr)
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
	drained := true
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	for c.readRC(p) > 0 {
		if deadline != 0 && c.core.Now() >= deadline {
			drained = false
			break
		}
		c.core.Compute(c.rt.Costs.WaitIter)
		if t := c.popLocal(); t != 0 {
			c.execLocal(t)
			continue
		}
		if t := c.trySteal(); t != 0 {
			c.executeTask(t, true)
			c.failStreak = 0
		} else {
			c.idleBackoff()
		}
	}
	if c.holds(rt.disc.waitInv, p) {
		c.core.Invalidate()
	}
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	return drained
}

// workerLoop is the top-level scheduling loop of a non-main thread: it
// executes local work (appearing after it steals a spawner) and steals
// until the program sets the done flag.
func (c *Ctx) workerLoop() {
	rt := c.rt
	c.core.SetFunc(fidRuntime, rt.footprint(fidRuntime))
	for iter := uint64(0); ; iter++ {
		// Fail-stop check at the scheduling-loop boundary: the core dies
		// between tasks, never mid-task (its current task's nested joins
		// must complete or the program could never finish). The check
		// reads a Go-side latch and costs no simulated cycles.
		if c.core.Offline() {
			c.enterOffline()
			return
		}
		if c.checkDone(iter) {
			return
		}
		if t := c.popLocal(); t != 0 {
			c.execLocal(t)
			continue
		}
		if t := c.trySteal(); t != 0 {
			c.executeTask(t, true)
			c.failStreak = 0
		} else {
			c.idleBackoff()
		}
	}
}

// checkDone polls the termination flag (see discipline.doneAMOEvery).
func (c *Ctx) checkDone(iter uint64) bool {
	rt := c.rt
	if n := rt.disc.doneAMOEvery; n != 0 {
		return iter%n == 0 && c.core.Amo(rt.doneAddr, cache.AmoOr, 0, 0) != 0
	}
	return c.core.Load(rt.doneAddr) != 0
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
