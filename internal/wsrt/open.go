package wsrt

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/sim"
)

// This file adds the open-system primitives: a fire-and-forget spawn
// (requests arrive one at a time and must not block the acceptor the
// way Fork's spawn-all-then-wait does) and the matching deferred joins.
// They compose with the existing Figure 3 engines — an async child is
// an ordinary task descriptor whose join goes through the same
// per-variant reference-count discipline, so steals, ULI recovery, and
// dead-core reclaim all apply unchanged. Every call runs on a simulated
// thread: their one caller, openload.Run, always simulates.

// Now returns the current simulated cycle on this thread.
func (c *Ctx) Now() sim.Time { return c.core.Now() }

// IdleUntil parks the thread until cycle t (no-op when t has passed)
// while staying responsive to incoming ULI steal requests. Open-system
// drivers use it to sleep until the next scheduled arrival.
func (c *Ctx) IdleUntil(t sim.Time) { c.core.IdleUntil(t) }

// SpawnAsync spawns body as a child of the current task without
// waiting for it; the caller joins all outstanding children later with
// WaitChildren (or WaitChildrenUntil). Unlike Fork, which initializes
// the reference count once with a plain store before any child exists,
// an async spawner's earlier children may already be executing — and,
// under DTS, may already have been stolen — so the count is bumped
// with an AMO. The AMO is coherent against every concurrent decrement
// the variants perform (stolen children always decrement with AMOs,
// and local plain-RMW decrements happen on this same thread).
func (c *Ctx) SpawnAsync(fid int, body Body) {
	p := c.cur
	c.core.Amo(p+descRC*8, cache.AmoAdd, 1, 0)
	t := c.newTask(fid, body)
	c.spawnTask(t)
}

// WaitChildren blocks until every child spawned so far (by Fork or
// SpawnAsync) has joined, executing local and stolen work meanwhile.
func (c *Ctx) WaitChildren() { c.wait(c.cur) }

// WaitChildrenUntil is WaitChildren with a horizon: it executes work
// until every child has joined or the simulated clock reaches
// deadline, whichever is first, and reports whether it drained. A
// false return means children are still in flight — the open-system
// accounting counts them as InFlightAtEnd.
func (c *Ctx) WaitChildrenUntil(deadline sim.Time) bool {
	return c.waitDeadline(c.cur, deadline)
}
