package openload

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// rmatQueryName is the one per-request workload. Spec.Workload must
// name it: btsim's -workload, a simd open job and the open goldens all
// carry the name.
const rmatQueryName = "rmat-query"

// paramRand derives the per-request parameter stream; it is separate
// from the arrival-schedule stream so the two cannot alias.
func paramRand(seed uint64) *sim.Rand {
	return sim.NewRand(seed*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
}

// --- rmat-query: two-hop degree sum over a shared R-MAT graph ---

// rmatQuery answers "total degree of src's neighborhood": each request
// picks a source vertex and sums deg(v) over its neighbors v, fanning
// the edge range out as tasks. It models a small graph-serving query
// with shared read-mostly state and an atomic reduction per request.
type rmatQuery struct {
	g       *graph.Graph
	gm      *graph.Mem
	srcs    []int
	results mem.Addr
	exp     []uint64
}

// newRMatQuery loads the shared graph into rt's memory (input loading,
// like graph.LoadInto, not timed execution) and computes every
// request's parameters and answer natively from the spec seed before
// the simulation starts, so shedding cannot perturb them.
func newRMatQuery(rt *wsrt.RT, sp Spec) *rmatQuery {
	q := &rmatQuery{
		g:    graph.RMat(8, 8, sp.Seed*2+1),
		srcs: make([]int, sp.Requests),
		exp:  make([]uint64, sp.Requests),
	}
	q.gm = graph.LoadInto(rt.Mem(), q.g)
	q.results = rt.Mem().AllocWords(sp.Requests)
	rng := paramRand(sp.Seed)
	for i := range q.srcs {
		src := rng.Intn(q.g.N)
		q.srcs[i] = src
		var sum uint64
		for _, v := range q.g.Neighbors(src) {
			sum += uint64(q.g.Degree(int(v)))
		}
		q.exp[i] = sum
	}
	return q
}

func (q *rmatQuery) body(c *wsrt.Ctx, fid, i int) {
	src := q.srcs[i]
	lo, hi := int(q.g.Offsets[src]), int(q.g.Offsets[src+1])
	res := q.resultAddr(i)
	c.ParallelForRange(fid, lo, hi, 16, func(cc *wsrt.Ctx, l, h int) {
		var sum uint64
		for j := l; j < h; j++ {
			v := int(cc.Load(q.gm.EdgeAddr(j)))
			sum += cc.Load(q.gm.OffsetAddr(v+1)) - cc.Load(q.gm.OffsetAddr(v))
		}
		cc.Amo(res, cache.AmoAdd, sum, 0)
	})
}

func (q *rmatQuery) resultAddr(i int) mem.Addr { return q.results + mem.Addr(i*8) }
func (q *rmatQuery) expected(i int) uint64     { return q.exp[i] }
