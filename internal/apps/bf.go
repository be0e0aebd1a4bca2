package apps

import (
	"fmt"

	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-bf: Bellman-Ford single-source shortest paths with CAS-based
// writeMin relaxations (Ligra's BellmanFord).

func init() {
	register(&App{Name: "ligra-bf", Method: "pf", DefaultGrain: 32, Setup: setupBF})
}

// nativeSSSP computes reference distances (Bellman-Ford, exact).
func nativeSSSP(g *graph.Graph, src int) []uint64 {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = unvisited
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.N; v++ {
			if dist[v] == unvisited {
				continue
			}
			for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
				u := g.Edges[i]
				nd := dist[v] + uint64(g.Weights[i])
				if nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
	}
	return dist
}

func setupBF(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctx(rt, size)
	grain = grainOr(grain, 32)
	m := rt.Mem()
	n := gc.g.N
	dist := m.AllocWords(n)
	mark := m.AllocWords(n) // round each vertex last joined the frontier
	for v := 0; v < n; v++ {
		m.WriteWord(word(dist, v), unvisited)
		m.WriteWord(word(mark, v), unvisited)
	}
	src := maxDegreeVertex(gc.g)
	m.WriteWord(word(dist, src), 0)
	want := nativeSSSP(gc.g, src)

	fid := rt.RegisterFunc("bf", 1024)

	visit := func(c *wsrt.Ctx, round uint64, v int, s, e int, pb *pushBuf) {
		dv := atomicRead(c, word(dist, v))
		for i := s; i < e; i++ {
			c.Compute(5)
			ue, w := c.Load2(gc.gm.EdgeAddr(i), gc.gm.WeightAddr(i))
			u := int(ue)
			if casMin(c, word(dist, u), dv+w) {
				if markOnce(c, word(mark, u), round) {
					pb.push(c, u)
				}
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
		InputDesc: fmt.Sprintf("rMat %d vertices weighted, src %d", n, src),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			for v := 0; v < n; v++ {
				if got := read(word(dist, v)); got != want[v] {
					return fmt.Errorf("bf: dist[%d] = %d, want %d", v, got, want[v])
				}
			}
			return nil
		},
	}
}
