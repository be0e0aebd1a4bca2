package apps

import (
	"fmt"

	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-radii: graph radius/eccentricity estimation by K=64
// simultaneous bit-parallel BFS traversals from sample sources (Ligra's
// Radii). Visited masks propagate with fetch-and-or; radii[v] records
// the last round v's mask grew.

func init() {
	register(&App{Name: "ligra-radii", Method: "pf", DefaultGrain: 32, Setup: setupRadii})
}

// radiiSources picks the K highest-degree vertices (deterministic).
func radiiSources(g *graph.Graph, k int) []int {
	type dv struct{ d, v int }
	best := make([]dv, 0, g.N)
	for v := 0; v < g.N; v++ {
		best = append(best, dv{g.Degree(v), v})
	}
	// Selection by degree then id (stable, deterministic).
	for i := 0; i < k && i < len(best); i++ {
		mx := i
		for j := i + 1; j < len(best); j++ {
			if best[j].d > best[mx].d || (best[j].d == best[mx].d && best[j].v < best[mx].v) {
				mx = j
			}
		}
		best[i], best[mx] = best[mx], best[i]
	}
	srcs := make([]int, 0, k)
	for i := 0; i < k && i < len(best); i++ {
		srcs = append(srcs, best[i].v)
	}
	return srcs
}

// nativeRadii mirrors the simulated algorithm in plain Go (the
// algorithm's result is schedule-independent: masks accumulate with OR
// and radii[v] equals the BFS level at which v's mask last grew).
func nativeRadii(g *graph.Graph, srcs []int) []uint64 {
	visited := make([]uint64, g.N)
	next := make([]uint64, g.N)
	radii := make([]uint64, g.N)
	cur := map[int]bool{}
	for i, s := range srcs {
		visited[s] |= 1 << i
		cur[s] = true
	}
	copy(next, visited)
	round := uint64(0)
	for len(cur) > 0 {
		round++
		newFrontier := map[int]bool{}
		for v := range cur {
			for _, u := range g.Neighbors(v) {
				add := visited[v] &^ visited[u]
				if add != 0 {
					next[u] |= add
					newFrontier[int(u)] = true
					radii[u] = round
				}
			}
		}
		for v := range newFrontier {
			visited[v] = next[v]
		}
		cur = newFrontier
	}
	return radii
}

func setupRadii(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctxHeavy(rt, size, true)
	m := rt.Mem()
	n := gc.g.N
	k := 64
	if n < k {
		k = n
	}
	srcs := radiiSources(gc.g, k)
	visited := m.AllocWords(n)
	next := m.AllocWords(n)
	radii := m.AllocWords(n)
	mark := m.AllocWords(n)
	for v := 0; v < n; v++ {
		m.WriteWord(word(mark, v), unvisited)
	}
	for i, s := range srcs {
		old := m.ReadWord(word(visited, s))
		m.WriteWord(word(visited, s), old|1<<i)
		m.WriteWord(word(next, s), old|1<<i)
	}
	want := nativeRadii(gc.g, srcs)

	fid := rt.RegisterFunc("radii", 1280)

	visit := func(c *wsrt.Ctx, round uint64, v int, s, e int, pb *pushBuf) {
		mine := c.Load(word(visited, v))
		for i := s; i < e; i++ {
			c.Compute(5)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			// Test-then-or: mask bits only accumulate, so a stale copy
			// is a subset of the truth; if it already covers our bits
			// the AMO would be a no-op.
			if cur := c.Load(word(next, u)); cur|mine == cur {
				continue
			}
			old := c.Amo(word(next, u), cache.AmoOr, mine, 0)
			if old|mine != old {
				if markOnce(c, word(mark, u), round) {
					c.Store(word(radii, u), round)
					pb.push(c, u)
				}
			}
		}
	}
	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			gc.initFrontier(c, srcs...)
			round := uint64(0)
			cnt := int(c.Load(gc.curCnt))
			for cnt > 0 {
				round++
				r := round
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
									visit(c2, r, v, l2, h2, pb2)
									pb2.flush(c2)
								})
							continue
						}
						visit(cc, r, v, s0, e0, pb)
					}
					pb.flush(cc)
				}
				if serial {
					leaf(c, 0, cnt)
				} else {
					c.ParallelForRange(fid, 0, cnt, grain, leaf)
				}
				cnt = gc.swap(c)
				// Promote next masks for the new frontier (parallel for
				// large frontiers; each element touches only its own
				// vertex's words).
				promote := func(cc *wsrt.Ctx, i int) {
					u := int(cc.Load(word(gc.cur, i)))
					cc.Store(word(visited, u), atomicRead(cc, word(next, u)))
				}
				if serial || cnt < 128 {
					for i := 0; i < cnt; i++ {
						promote(c, i)
					}
				} else {
					c.ParallelFor(fid, 0, cnt, grain, promote)
				}
			}
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices, %d BFS sources", n, k),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			for v := 0; v < n; v++ {
				if got := read(word(radii, v)); got != want[v] {
					return fmt.Errorf("radii: radii[%d] = %d, want %d", v, got, want[v])
				}
			}
			return nil
		},
	}
}
