package wsrt

import "bigtiny/internal/mem"

// Fork is the parallel_invoke pattern (paper Fig. 2b): set the current
// task's reference count, spawn one child per body, and wait for them
// all to join. Matching the paper's usage, the reference count is
// written once with plain stores *before* any child becomes visible,
// so no atomicity is needed for the initialization.
func (c *Ctx) Fork(fid int, bodies ...Body) {
	if e, ok := c.env.(*nativeEnv); ok {
		// Native mode (RT.Analyze), with Cilkview-style span
		// accounting: the fork's span is the serial prefix plus the
		// maximum child span.
		e.sync()
		s0 := e.span
		var maxChild uint64
		for _, b := range bodies {
			e.tasks++
			e.span = 0
			b(c)
			e.sync()
			if e.span > maxChild {
				maxChild = e.span
			}
		}
		e.span = s0 + maxChild
		return
	}
	if len(bodies) == 0 {
		return
	}
	p := c.cur
	c.core.Store(p+descRC*8, uint64(len(bodies)))
	tasks := make([]mem.Addr, len(bodies))
	for i, b := range bodies {
		tasks[i] = c.newTask(fid, b)
	}
	for _, t := range tasks {
		c.spawnTask(t)
	}
	c.wait(p)
}

// ParallelFor is the parallel_for pattern (paper Fig. 2c): the range
// [lo, hi) is split recursively into tasks of at most grain iterations
// (grain is the paper's §V-D task granularity). body(c, i) is invoked
// once per index.
func (c *Ctx) ParallelFor(fid, lo, hi, grain int, body func(c *Ctx, i int)) {
	c.ParallelForRange(fid, lo, hi, grain, func(c *Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(c, i)
		}
	})
}

// ParallelForRange is ParallelFor with leaf-granularity bodies: body
// receives each leaf's whole [lo, hi) sub-range. Kernels use it when a
// task wants per-leaf state (e.g. a local buffer of discovered
// vertices flushed with one atomic, Ligra-style).
func (c *Ctx) ParallelForRange(fid, lo, hi, grain int, body func(c *Ctx, lo, hi int)) {
	if grain <= 0 {
		grain = c.rt.Grain
	}
	n := hi - lo
	if n <= 0 {
		return
	}
	if n <= grain {
		body(c, lo, hi)
		return
	}
	mid := lo + n/2
	c.Fork(fid,
		func(cc *Ctx) { cc.ParallelForRange(fid, lo, mid, grain, body) },
		func(cc *Ctx) { cc.ParallelForRange(fid, mid, hi, grain, body) },
	)
}

// ParallelReduce computes a reduction over [lo, hi) with the same
// recursive splitting as ParallelFor. Partial results flow through
// simulated memory (each leaf writes its partial into a dedicated
// word), preserving DAG-consistent data sharing.
func (c *Ctx) ParallelReduce(fid, lo, hi, grain int,
	leaf func(c *Ctx, lo, hi int) uint64,
	combine func(a, b uint64) uint64) uint64 {
	if grain <= 0 {
		grain = c.rt.Grain
	}
	n := hi - lo
	if n <= 0 {
		return 0
	}
	if n <= grain {
		return leaf(c, lo, hi)
	}
	mid := lo + n/2
	la := c.Alloc(1)
	ra := c.Alloc(1)
	c.Fork(fid,
		func(cc *Ctx) { cc.Store(la, cc.ParallelReduce(fid, lo, mid, grain, leaf, combine)) },
		func(cc *Ctx) { cc.Store(ra, cc.ParallelReduce(fid, mid, hi, grain, leaf, combine)) },
	)
	return combine(c.Load(la), c.Load(ra))
}
