package apps

import (
	"fmt"

	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-bfs: frontier-based breadth-first search. Discovery races are
// resolved with compare-and-swap on the parent array (Ligra's idiom);
// the CAS winner records the level and pushes the vertex.
//
// ligra-bfsbv: the bit-vector variant: frontiers and the visited set
// are bitmaps; a word of 64 vertices is processed per frontier element.

func init() {
	register(&App{Name: "ligra-bfs", Method: "pf", DefaultGrain: 32, Setup: setupBFS})
	register(&App{Name: "ligra-bfsbv", Method: "pf", DefaultGrain: 4, Setup: setupBFSBV})
}

// nativeBFSLevels computes reference levels.
func nativeBFSLevels(g *graph.Graph, src int) []uint64 {
	lv := make([]uint64, g.N)
	for i := range lv {
		lv[i] = unvisited
	}
	lv[src] = 0
	q := []int{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range g.Neighbors(v) {
			if lv[u] == unvisited {
				lv[u] = lv[v] + 1
				q = append(q, int(u))
			}
		}
	}
	return lv
}

func setupBFS(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctx(rt, size)
	m := rt.Mem()
	n := gc.g.N
	parent := m.AllocWords(n)
	level := m.AllocWords(n)
	for v := 0; v < n; v++ {
		m.WriteWord(word(parent, v), unvisited)
		m.WriteWord(word(level, v), unvisited)
	}
	src := maxDegreeVertex(gc.g)
	m.WriteWord(word(parent, src), uint64(src))
	m.WriteWord(word(level, src), 0)
	want := nativeBFSLevels(gc.g, src)

	fid := rt.RegisterFunc("bfs", 1024)

	visit := func(c *wsrt.Ctx, round uint64, v int, s, e int, pb *pushBuf) {
		for i := s; i < e; i++ {
			c.Compute(4)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			// Test-then-CAS (Ligra: parent[u] == -1 && CAS(...)): the
			// plain read filters already-claimed vertices; parent only
			// transitions away from unvisited, so a stale unvisited just
			// costs one failed CAS.
			if c.Load(word(parent, u)) != unvisited {
				continue
			}
			if got := c.Amo(word(parent, u), cache.AmoCAS, unvisited, uint64(v)); got == unvisited {
				c.Store(word(level, u), round)
				pb.push(c, u)
			}
		}
	}
	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			gc.initFrontier(c, src)
			gc.frontierLoop(c, fid, grain, serial, visit)
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices, %d edges, src %d", n, gc.g.M(), src),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			for v := 0; v < n; v++ {
				if got := read(word(level, v)); got != want[v] {
					return fmt.Errorf("bfs: level[%d] = %d, want %d", v, got, want[v])
				}
				// Parent validity: parent[v] must be a neighbor at level-1.
				p := read(word(parent, v))
				if want[v] != unvisited && want[v] != 0 {
					if p == unvisited || want[p] != want[v]-1 {
						return fmt.Errorf("bfs: invalid parent for %d", v)
					}
				}
			}
			return nil
		},
	}
}

func setupBFSBV(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctx(rt, size)
	m := rt.Mem()
	n := gc.g.N
	nw := (n + 63) / 64
	visited := m.AllocWords(nw)
	curBV := m.AllocWords(nw)
	nextBV := m.AllocWords(nw)
	changed := m.AllocWords(1) // whether any bit was newly set this round
	src := maxDegreeVertex(gc.g)
	m.WriteWord(word(visited, src/64), 1<<(src%64))
	m.WriteWord(word(curBV, src/64), 1<<(src%64))
	want := nativeBFSLevels(gc.g, src)
	ecc := uint64(0)
	for _, l := range want {
		if l != unvisited && l > ecc {
			ecc = l
		}
	}

	fid := rt.RegisterFunc("bfsbv", 1024)

	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			rounds := uint64(0)
			for {
				c.Store(changed, 0)
				leaf := func(cc *wsrt.Ctx, lo, hi int) {
					any := false
					for wi := lo; wi < hi; wi++ {
						cc.Compute(4)
						w := cc.Load(word(curBV, wi))
						for ; w != 0; w &= w - 1 {
							v := wi*64 + trailing64(w)
							s, e := gc.degree(cc, v)
							for i := s; i < e; i++ {
								cc.Compute(3)
								u := int(cc.Load(gc.gm.EdgeAddr(i)))
								bit := uint64(1) << (u % 64)
								// Test-then-set: visited bits only turn on, so a
								// stale set bit is truly set and a stale clear
								// bit only costs a redundant AMO.
								if cc.Load(word(visited, u/64))&bit != 0 {
									continue
								}
								old := cc.Amo(word(visited, u/64), cache.AmoOr, bit, 0)
								if old&bit == 0 {
									cc.Amo(word(nextBV, u/64), cache.AmoOr, bit, 0)
									any = true
								}
							}
						}
					}
					if any {
						// One flag update per leaf, not per bit.
						cc.Amo(changed, cache.AmoOr, 1, 0)
					}
				}
				if serial {
					leaf(c, 0, nw)
				} else {
					c.ParallelForRange(fid, 0, nw, grain, leaf)
				}
				if c.Load(changed) == 0 {
					break
				}
				rounds++
				// Promote next to cur and clear next (main thread, plain
				// stores published by the fork discipline).
				for wi := 0; wi < nw; wi++ {
					c.Copy(word(curBV, wi), word(nextBV, wi))
					c.Store(word(nextBV, wi), 0)
				}
			}
			c.Store(changed, rounds) // stash round count for verification
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices (bit-vector), src %d", n, src),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			for v := 0; v < n; v++ {
				wantBit := want[v] != unvisited
				gotBit := read(word(visited, v/64))&(1<<(v%64)) != 0
				if wantBit != gotBit {
					return fmt.Errorf("bfsbv: visited[%d] = %v, want %v", v, gotBit, wantBit)
				}
			}
			if got := read(changed); got != ecc {
				return fmt.Errorf("bfsbv: rounds = %d, want eccentricity %d", got, ecc)
			}
			return nil
		},
	}
}

func trailing64(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}
