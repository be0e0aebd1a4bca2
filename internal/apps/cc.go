package apps

import (
	"fmt"

	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-cc: connected components by label propagation: every vertex's
// label converges to the minimum vertex id in its component via
// CAS-based writeMin over edges (Ligra's Components).

func init() {
	register(&App{Name: "ligra-cc", Method: "pf", DefaultGrain: 32, Setup: setupCC})
}

// nativeComponents returns the min-vertex-id label per component.
func nativeComponents(g *graph.Graph) []uint64 {
	label := make([]uint64, g.N)
	for v := range label {
		label[v] = uint64(v)
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				if label[v] < label[u] {
					label[u] = label[v]
					changed = true
				} else if label[u] < label[v] {
					label[v] = label[u]
					changed = true
				}
			}
		}
	}
	return label
}

func setupCC(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctx(rt, size)
	m := rt.Mem()
	n := gc.g.N
	ids := m.AllocWords(n)
	mark := m.AllocWords(n)
	for v := 0; v < n; v++ {
		m.WriteWord(word(ids, v), uint64(v))
		m.WriteWord(word(mark, v), unvisited)
	}
	want := nativeComponents(gc.g)

	fid := rt.RegisterFunc("cc", 1024)

	visit := func(c *wsrt.Ctx, round uint64, v int, s, e int, pb *pushBuf) {
		myID := atomicRead(c, word(ids, v))
		for i := s; i < e; i++ {
			c.Compute(4)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			if casMin(c, word(ids, u), myID) {
				if markOnce(c, word(mark, u), round) {
					pb.push(c, u)
				}
			}
		}
	}
	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			// Initial frontier: all vertices.
			all := make([]int, n)
			for v := range all {
				all[v] = v
			}
			gc.initFrontier(c, all...)
			gc.frontierLoop(c, fid, grain, serial, visit)
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices, %d edges", n, gc.g.M()),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			for v := 0; v < n; v++ {
				if got := read(word(ids, v)); got != want[v] {
					return fmt.Errorf("cc: ids[%d] = %d, want %d", v, got, want[v])
				}
			}
			return nil
		},
	}
}
