package apps

import (
	"sync"

	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// Shared Ligra-style machinery: sparse frontiers, coherent read-modify-
// write helpers, and graph traversal through simulated memory.
//
// Data-sharing discipline (mirrors Ligra on the paper's runtime):
//   - State written by the main thread between rounds (resets, swaps)
//     is plain stores: DAG consistency publishes parent data to children.
//   - State raced between sibling tasks within a round (visited flags,
//     distances, frontier counters) uses AMOs (compare-and-swap etc.),
//     the paper's "fine-grained synchronization".
//   - State written in round k and read in round k+1 is plain: the
//     runtime's flush-on-steal/invalidate-on-steal discipline publishes
//     it across round boundaries.

const unvisited = ^uint64(0)

// ligraScale maps Size to (rMat scale, edge factor). heavy marks
// kernels whose per-edge work is super-linear (tc's intersections,
// bc's two passes, radii's 64-way BFS): they use one scale smaller so
// full-evaluation wall times stay balanced across the suite.
func ligraScale(size Size, heavy bool) (scale, ef int) {
	switch size {
	case Test:
		return 6, 4
	case Big:
		if heavy {
			return 12, 8
		}
		return 13, 8
	default:
		if heavy {
			return 11, 8
		}
		return 12, 8
	}
}

// rmatInputs memoizes the R-MAT inputs per (scale, edge factor): every
// cell of a Ligra app at one size reads the same graph, and a Graph is
// never written after RMat returns, so the process builds each once.
// ligraScale yields a handful of keys.
var rmatInputs struct {
	sync.Mutex
	m map[[2]int]*graph.Graph
}

func rmatInput(scale, ef int) *graph.Graph {
	rmatInputs.Lock()
	defer rmatInputs.Unlock()
	key := [2]int{scale, ef}
	g := rmatInputs.m[key]
	if g == nil {
		if rmatInputs.m == nil {
			rmatInputs.m = make(map[[2]int]*graph.Graph)
		}
		g = graph.RMat(scale, ef, 0x9A3F)
		rmatInputs.m[key] = g
	}
	return g
}

// gctx bundles a loaded graph with frontier storage.
type gctx struct {
	g  *graph.Graph
	gm *graph.Mem
	// cur/next sparse frontiers: vertex lists + counters.
	cur, next       mem.Addr
	curCnt, nextCnt mem.Addr
}

func newGctx(rt *wsrt.RT, size Size) *gctx { return newGctxHeavy(rt, size, false) }

// newGctxHeavy builds the graph context with the heavy-kernel scale.
// The degenerate sizes bypass R-MAT: Empty is a single isolated vertex
// (R-MAT cannot generate an edgeless graph), Unit the two-vertex path.
func newGctxHeavy(rt *wsrt.RT, size Size, heavy bool) *gctx {
	var g *graph.Graph
	switch size {
	case Empty:
		g = graph.Empty(1)
	case Unit:
		g = graph.Path(2)
	default:
		g = rmatInput(ligraScale(size, heavy))
	}
	m := rt.Mem()
	return &gctx{
		g:       g,
		gm:      graph.LoadInto(m, g),
		cur:     m.AllocWords(g.N),
		next:    m.AllocWords(g.N),
		curCnt:  m.AllocWords(1),
		nextCnt: m.AllocWords(1),
	}
}

// maxDegreeVertex picks the traversal source.
func maxDegreeVertex(g *graph.Graph) int {
	best, bd := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bd {
			best, bd = v, d
		}
	}
	return best
}

// degree loads v's degree from simulated CSR.
func (gc *gctx) degree(c *wsrt.Ctx, v int) (start, end int) {
	s, e := c.Load2(gc.gm.OffsetAddr(v), gc.gm.OffsetAddr(v+1))
	return int(s), int(e)
}

// pushBuf buffers a leaf task's discovered vertices so the shared
// frontier counter is touched once per leaf, not once per discovery.
// Ligra proper achieves the same decontention with prefix sums; a
// task-local buffer plus one fetch-and-add is the chunked equivalent.
type pushBuf struct {
	gc  *gctx
	buf []int
}

// push buffers v (a couple of instructions on the local stack).
func (pb *pushBuf) push(c *wsrt.Ctx, v int) {
	c.Compute(2)
	pb.buf = append(pb.buf, v)
}

// flush reserves slots in the next frontier with a single
// fetch-and-add and stores the buffered vertices (slots are private to
// this task once reserved).
func (pb *pushBuf) flush(c *wsrt.Ctx) {
	if len(pb.buf) == 0 {
		return
	}
	idx := c.Amo(pb.gc.nextCnt, cache.AmoAdd, uint64(len(pb.buf)), 0)
	for i, v := range pb.buf {
		c.Store(word(pb.gc.next, int(idx)+i), uint64(v))
	}
	pb.buf = pb.buf[:0]
}

// swap promotes next to cur (called by the main thread between rounds).
func (gc *gctx) swap(c *wsrt.Ctx) int {
	n := int(c.Load(gc.nextCnt))
	gc.cur, gc.next = gc.next, gc.cur
	c.Store(gc.curCnt, uint64(n))
	c.Store(gc.nextCnt, 0)
	return n
}

// initFrontier seeds the current frontier (main thread, before fork).
func (gc *gctx) initFrontier(c *wsrt.Ctx, vs ...int) {
	for i, v := range vs {
		c.Store(word(gc.cur, i), uint64(v))
	}
	c.Store(gc.curCnt, uint64(len(vs)))
	c.Store(gc.nextCnt, 0)
}

// coherent read: amo_or(a, 0) (paper Fig. 3's atomic read idiom).
func atomicRead(c *wsrt.Ctx, a mem.Addr) uint64 {
	return c.Amo(a, cache.AmoOr, 0, 0)
}

// casMin atomically lowers *a to v if v is smaller; reports whether it
// decreased the value (Ligra's writeMin). The first read is a plain
// load — the test-then-CAS idiom: the word is monotone non-increasing,
// so a stale copy can only be too LARGE, which at worst costs one
// failed CAS (whose return value is authoritative). Probing with an
// AMO instead would migrate the line to every prober and serialize the
// machine on hot words.
func casMin(c *wsrt.Ctx, a mem.Addr, v uint64) bool {
	old := c.Load(a)
	for v < old {
		c.Compute(2)
		got := c.Amo(a, cache.AmoCAS, old, v)
		if got == old {
			return true
		}
		old = got
	}
	return false
}

// markOnce claims per-round membership: mark[a] is set to round exactly
// once per round; the claiming task returns true (Ligra's CAS-guarded
// frontier insertion). Same test-then-CAS reasoning as casMin: mark
// values are monotone increasing round numbers, so a stale copy is too
// small and merely triggers a (correct) CAS.
func markOnce(c *wsrt.Ctx, a mem.Addr, round uint64) bool {
	cur := c.Load(a)
	for {
		if cur == round {
			return false
		}
		c.Compute(2)
		got := c.Amo(a, cache.AmoCAS, cur, round)
		if got == cur {
			return true
		}
		cur = got
	}
}

// hubEdgeSplit is the per-vertex degree above which a frontier
// vertex's edges are processed by nested parallel tasks. R-MAT graphs
// are heavily skewed; without edge balancing a single hub vertex
// serializes its whole round (Ligra's edgeMap solves the same problem
// with edge-based work partitioning).
const hubEdgeSplit = 128

// frontierLoop runs the round-based skeleton shared by the traversal
// kernels: while the frontier is non-empty, process it in parallel with
// visit(round, v, lo, hi, pb) — [lo,hi) is a window of v's adjacency
// indices — then advance. Discoveries go through the leaf's pushBuf.
// serial selects the Serial-IO code path.
func (gc *gctx) frontierLoop(c *wsrt.Ctx, fid, grain int, serial bool,
	visit func(c *wsrt.Ctx, round uint64, v int, lo, hi int, pb *pushBuf)) (rounds uint64) {
	round := uint64(0)
	n := int(c.Load(gc.curCnt))
	for n > 0 {
		round++
		r := round
		leaf := func(cc *wsrt.Ctx, lo, hi int) {
			pb := &pushBuf{gc: gc}
			for i := lo; i < hi; i++ {
				cc.Compute(4)
				v := int(cc.Load(word(gc.cur, i)))
				s, e := gc.degree(cc, v)
				if !serial && e-s > hubEdgeSplit {
					// Hub vertex: edge-balance its adjacency across
					// nested tasks.
					cc.ParallelForRange(fid, s, e, hubEdgeSplit,
						func(c2 *wsrt.Ctx, l2, h2 int) {
							pb2 := &pushBuf{gc: gc}
							visit(c2, r, v, l2, h2, pb2)
							pb2.flush(c2)
						})
					continue
				}
				visit(cc, r, v, s, e, pb)
			}
			pb.flush(cc)
		}
		if serial {
			leaf(c, 0, n)
		} else {
			c.ParallelForRange(fid, 0, n, grain, leaf)
		}
		n = gc.swap(c)
	}
	return round
}
