package apps

import (
	"fmt"

	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-tc: triangle counting by sorted adjacency intersection
// (Ligra's Triangle). Parallelism is two-level: parallel_for over
// vertices (grain = vertices per task, the paper's Figure 4
// granularity knob), with a nested parallel_for over the adjacency of
// very-high-degree vertices so the R-MAT degree skew cannot serialize
// the computation on one giant task.

func init() {
	register(&App{Name: "ligra-tc", Method: "pf", DefaultGrain: 16, Setup: setupTC})
}

// hubSplit is the degree above which a vertex's intersections are
// themselves parallelized.
const hubSplit = 128

// nativeTriangles counts triangles exactly.
func nativeTriangles(g *graph.Graph) uint64 {
	var count uint64
	for v := 0; v < g.N; v++ {
		nv := g.Neighbors(v)
		for _, u := range nv {
			if int(u) <= v {
				continue
			}
			nu := g.Neighbors(int(u))
			i, j := 0, 0
			for i < len(nv) && j < len(nu) {
				a, b := nv[i], nu[j]
				switch {
				case a == b:
					if a > u {
						count++
					}
					i++
					j++
				case a < b:
					i++
				default:
					j++
				}
			}
		}
	}
	return count
}

func setupTC(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctxHeavy(rt, size, true)
	m := rt.Mem()
	n := gc.g.N
	total := m.AllocWords(1)
	want := nativeTriangles(gc.g)

	fid := rt.RegisterFunc("tc", 1536)

	// intersect counts common neighbors w > u between v's and u's
	// sorted adjacency lists.
	intersect := func(c *wsrt.Ctx, vs, ve, us, ue int, u int) uint64 {
		var cnt uint64
		a, b := vs, us
		for a < ve && b < ue {
			c.Compute(4)
			x, y := c.Load2(gc.gm.EdgeAddr(a), gc.gm.EdgeAddr(b))
			switch {
			case x == y:
				if int(x) > u {
					cnt++
				}
				a++
				b++
			case x < y:
				a++
			default:
				b++
			}
		}
		return cnt
	}

	// countRange counts triangles from v's edges in adjacency positions
	// [lo, hi).
	countRange := func(c *wsrt.Ctx, v, vs, ve, lo, hi int) uint64 {
		var cnt uint64
		for i := lo; i < hi; i++ {
			c.Compute(3)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			if u <= v {
				continue
			}
			us, ue := gc.degree(c, u)
			cnt += intersect(c, vs, ve, us, ue, u)
		}
		return cnt
	}

	countVertex := func(c *wsrt.Ctx, v int, parallel bool) {
		vs, ve := gc.degree(c, v)
		deg := ve - vs
		if parallel && deg > hubSplit {
			// Hub vertex: parallelize over its adjacency so the R-MAT
			// skew cannot serialize the run on one task. Partial counts
			// reduce through the fork tree; one AMO publishes the total.
			cnt := c.ParallelReduce(fid, vs, ve, hubSplit,
				func(cc *wsrt.Ctx, lo, hi int) uint64 {
					return countRange(cc, v, vs, ve, lo, hi)
				},
				func(a, b uint64) uint64 { return a + b })
			if cnt > 0 {
				c.Amo(total, cache.AmoAdd, cnt, 0)
			}
			return
		}
		if cnt := countRange(c, v, vs, ve, vs, ve); cnt > 0 {
			c.Amo(total, cache.AmoAdd, cnt, 0)
		}
	}

	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			if serial {
				for v := 0; v < n; v++ {
					countVertex(c, v, false)
				}
				return
			}
			c.ParallelFor(fid, 0, n, grain, func(cc *wsrt.Ctx, v int) {
				countVertex(cc, v, true)
			})
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices, %d edges", n, gc.g.M()),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			if got := read(total); got != want {
				return fmt.Errorf("tc: %d triangles, want %d", got, want)
			}
			return nil
		},
	}
}
