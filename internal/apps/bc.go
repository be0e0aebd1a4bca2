package apps

import (
	"fmt"
	"math"

	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-bc: single-source betweenness centrality (Brandes): a forward
// BFS accumulating shortest-path counts (sigma, fetch-and-add), then a
// level-by-level backward sweep accumulating dependencies (delta).
// Per-level frontiers are retained from the forward pass for the
// backward pass, as in Ligra's BC.

func init() {
	register(&App{Name: "ligra-bc", Method: "pf", DefaultGrain: 32, Setup: setupBC})
}

// nativeBC computes reference dependencies from src.
func nativeBC(g *graph.Graph, src int) []float64 {
	n := g.N
	level := make([]int, n)
	sigma := make([]float64, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	sigma[src] = 1
	var levels [][]int
	cur := []int{src}
	for len(cur) > 0 {
		levels = append(levels, cur)
		var next []int
		for _, v := range cur {
			for _, u := range g.Neighbors(v) {
				if level[u] == -1 {
					level[u] = level[v] + 1
					next = append(next, int(u))
				}
				if level[u] == level[v]+1 {
					sigma[u] += sigma[v]
				}
			}
		}
		cur = next
	}
	delta := make([]float64, n)
	for l := len(levels) - 2; l >= 0; l-- {
		for _, v := range levels[l] {
			var d float64
			for _, u := range g.Neighbors(v) {
				if level[u] == level[v]+1 {
					d += sigma[v] / sigma[u] * (1 + delta[u])
				}
			}
			delta[v] = d
		}
	}
	return delta
}

func setupBC(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctxHeavy(rt, size, true)
	m := rt.Mem()
	n := gc.g.N
	level := m.AllocWords(n) // BFS level (unvisited = MAX)
	sigma := m.AllocWords(n) // shortest-path counts (integers)
	delta := m.AllocWords(n) // dependencies (float64 bits)
	for v := 0; v < n; v++ {
		m.WriteWord(word(level, v), unvisited)
	}
	src := maxDegreeVertex(gc.g)
	m.WriteWord(word(level, src), 0)
	m.WriteWord(word(sigma, src), 1)
	want := nativeBC(gc.g, src)

	fid := rt.RegisterFunc("bc", 2048)

	forwardVisit := func(c *wsrt.Ctx, round uint64, v int, s, e int, pb *pushBuf) {
		sv := atomicRead(c, word(sigma, v))
		for i := s; i < e; i++ {
			c.Compute(5)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			// Test-then-CAS discovery (level transitions once, away
			// from unvisited; a stale unvisited costs one failed CAS
			// whose return value is authoritative).
			lu := c.Load(word(level, u))
			if lu == unvisited {
				got := c.Amo(word(level, u), cache.AmoCAS, unvisited, round)
				if got == unvisited {
					pb.push(c, u)
					got = round
				}
				lu = got
			}
			if lu == round {
				c.Amo(word(sigma, u), cache.AmoAdd, sv, 0)
			}
		}
	}

	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			// Forward BFS. Each level's frontier array is retained for
			// the backward pass (a fresh push array is allocated per
			// round instead of double-buffering, so no serial copying
			// is needed).
			type levelFrontier struct {
				arr mem.Addr
				cnt int
			}
			gc.initFrontier(c, src)
			levels := []levelFrontier{{gc.cur, 1}}
			cnt := 1
			for cnt > 0 {
				round := uint64(len(levels))
				leaf := func(cc *wsrt.Ctx, lo, hi int) {
					pb := &pushBuf{gc: gc}
					for i := lo; i < hi; i++ {
						cc.Compute(4)
						v := int(cc.Load(word(gc.cur, i)))
						s0, e0 := gc.degree(cc, v)
						if !serial && e0-s0 > hubEdgeSplit {
							cc.ParallelForRange(fid, s0, e0, hubEdgeSplit,
								func(c2 *wsrt.Ctx, l2, h2 int) {
									pb2 := &pushBuf{gc: gc}
									forwardVisit(c2, round, v, l2, h2, pb2)
									pb2.flush(c2)
								})
							continue
						}
						forwardVisit(cc, round, v, s0, e0, pb)
					}
					pb.flush(cc)
				}
				if serial {
					leaf(c, 0, cnt)
				} else {
					c.ParallelForRange(fid, 0, cnt, grain, leaf)
				}
				cnt = gc.swap(c)
				if cnt > 0 {
					levels = append(levels, levelFrontier{gc.cur, cnt})
					gc.next = c.Alloc(n) // keep this level's array intact
				}
			}
			// Backward sweep over levels (deepest-1 down to 0). delta[v]
			// is written only by v's unique task; all inputs were
			// finalized in deeper levels or the forward pass.
			for l := len(levels) - 2; l >= 0; l-- {
				lf := levels[l]
				body := func(cc *wsrt.Ctx, i int) {
					cc.Compute(4)
					v := int(cc.Load(word(lf.arr, i)))
					lv := cc.Load(word(level, v))
					sv := float64(cc.Load(word(sigma, v)))
					var d float64
					s, e := gc.degree(cc, v)
					for j := s; j < e; j++ {
						cc.Compute(6)
						u := int(cc.Load(gc.gm.EdgeAddr(j)))
						if cc.Load(word(level, u)) == lv+1 {
							su := float64(cc.Load(word(sigma, u)))
							du := math.Float64frombits(cc.Load(word(delta, u)))
							d += sv / su * (1 + du)
						}
					}
					cc.Store(word(delta, v), math.Float64bits(d))
				}
				if serial {
					for i := 0; i < lf.cnt; i++ {
						body(c, i)
					}
				} else {
					c.ParallelFor(fid, 0, lf.cnt, grain, body)
				}
			}
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices, src %d (Brandes)", n, src),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			for v := 0; v < n; v++ {
				got := math.Float64frombits(read(word(delta, v)))
				if diff := math.Abs(got - want[v]); diff > 1e-9*(1+math.Abs(want[v])) {
					return fmt.Errorf("bc: delta[%d] = %g, want %g", v, got, want[v])
				}
			}
			return nil
		},
	}
}
