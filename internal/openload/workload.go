package openload

import (
	"fmt"
	"sort"
	"strings"

	"bigtiny/internal/cache"
	"bigtiny/internal/graph"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// instance is one workload's prepared state: shared inputs loaded into
// simulated memory plus per-request parameters and natively computed
// expected answers, all derived from the spec seed before the
// simulation starts (so shedding cannot perturb them).
type instance interface {
	// body executes request i's task DAG on the runtime.
	body(c *wsrt.Ctx, fid, i int)
	// resultAddr is where request i's answer lands in simulated memory.
	resultAddr(i int) mem.Addr
	// expected is request i's natively computed answer.
	expected(i int) uint64
}

// workloads maps workload names to their instance builders. Builders
// run before rt.Run and may write inputs directly into rt.Mem()
// (input loading, like graph.LoadInto — not timed execution).
var workloads = map[string]func(rt *wsrt.RT, sp Spec) instance{
	"rmat-query": newRMatQuery,
	"sort":       newSort,
	"reduce":     newReduce,
}

func lookupWorkload(name string) (func(rt *wsrt.RT, sp Spec) instance, error) {
	if f, ok := workloads[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("openload: unknown workload %q (have %s)",
		name, strings.Join(Workloads(), ", "))
}

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

func newRMatQuery(rt *wsrt.RT, sp Spec) instance {
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

// --- sort: per-request parallel mergesort of a private array ---

// sortWords is each request's array length; sortBase is the insertion
// sort cutoff (two fork levels per request).
const (
	sortWords = 64
	sortBase  = 16
)

// sortLoad sorts a private 64-word array with a fork-join mergesort
// and answers a position-weighted checksum of the sorted order. It
// models a request with private mutable state and a small task tree.
type sortLoad struct {
	data    mem.Addr // Requests x sortWords
	scratch mem.Addr
	results mem.Addr
	exp     []uint64
}

func newSort(rt *wsrt.RT, sp Spec) instance {
	s := &sortLoad{
		data:    rt.Mem().AllocWords(sp.Requests * sortWords),
		scratch: rt.Mem().AllocWords(sp.Requests * sortWords),
		results: rt.Mem().AllocWords(sp.Requests),
		exp:     make([]uint64, sp.Requests),
	}
	rng := paramRand(sp.Seed)
	vals := make([]uint64, sortWords)
	for i := 0; i < sp.Requests; i++ {
		base := s.data + mem.Addr(i*sortWords*8)
		for j := range vals {
			vals[j] = rng.Uint64() % 1_000_000
			rt.Mem().WriteWord(base+mem.Addr(j*8), vals[j])
		}
		sorted := append([]uint64(nil), vals...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		var sum uint64
		for j, v := range sorted {
			sum += uint64(j+1) * v
		}
		s.exp[i] = sum
	}
	return s
}

func (s *sortLoad) body(c *wsrt.Ctx, fid, i int) {
	d := s.data + mem.Addr(i*sortWords*8)
	sc := s.scratch + mem.Addr(i*sortWords*8)
	msort(c, fid, d, sc, 0, sortWords)
	var sum uint64
	for j := 0; j < sortWords; j++ {
		sum += uint64(j+1) * c.Load(d+mem.Addr(j*8))
	}
	c.Store(s.resultAddr(i), sum)
}

// msort sorts d[lo:hi) in place, using sc[lo:hi) as merge scratch.
func msort(c *wsrt.Ctx, fid int, d, sc mem.Addr, lo, hi int) {
	if hi-lo <= sortBase {
		// Insertion sort through simulated memory.
		for j := lo + 1; j < hi; j++ {
			v := c.Load(d + mem.Addr(j*8))
			k := j
			for k > lo {
				prev := c.Load(d + mem.Addr((k-1)*8))
				if prev <= v {
					break
				}
				c.Store(d+mem.Addr(k*8), prev)
				k--
			}
			c.Store(d+mem.Addr(k*8), v)
		}
		return
	}
	mid := lo + (hi-lo)/2
	c.Fork(fid,
		func(cc *wsrt.Ctx) { msort(cc, fid, d, sc, lo, mid) },
		func(cc *wsrt.Ctx) { msort(cc, fid, d, sc, mid, hi) },
	)
	// Merge the halves into scratch, then copy back.
	a, b := lo, mid
	for k := lo; k < hi; k++ {
		var v uint64
		switch {
		case a >= mid:
			v = c.Load(d + mem.Addr(b*8))
			b++
		case b >= hi:
			v = c.Load(d + mem.Addr(a*8))
			a++
		default:
			va := c.Load(d + mem.Addr(a*8))
			vb := c.Load(d + mem.Addr(b*8))
			if va <= vb {
				v = va
				a++
			} else {
				v = vb
				b++
			}
		}
		c.Store(sc+mem.Addr(k*8), v)
	}
	for k := lo; k < hi; k++ {
		c.Copy(d+mem.Addr(k*8), sc+mem.Addr(k*8))
	}
}

func (s *sortLoad) resultAddr(i int) mem.Addr { return s.results + mem.Addr(i*8) }
func (s *sortLoad) expected(i int) uint64     { return s.exp[i] }

// --- reduce: windowed parallel sum over a shared array ---

const (
	reduceArray  = 2048
	reduceWindow = 256
	reduceGrain  = 32
)

// reduceLoad sums a random 256-word window of a shared 2048-word
// array with ParallelReduce. It models a read-only scan request whose
// partials flow through freshly allocated simulated memory.
type reduceLoad struct {
	arr     mem.Addr
	starts  []int
	results mem.Addr
	exp     []uint64
}

func newReduce(rt *wsrt.RT, sp Spec) instance {
	r := &reduceLoad{
		arr:     rt.Mem().AllocWords(reduceArray),
		results: rt.Mem().AllocWords(sp.Requests),
		starts:  make([]int, sp.Requests),
		exp:     make([]uint64, sp.Requests),
	}
	rng := paramRand(sp.Seed)
	vals := make([]uint64, reduceArray)
	for j := range vals {
		vals[j] = rng.Uint64() % 1_000_000
		rt.Mem().WriteWord(r.arr+mem.Addr(j*8), vals[j])
	}
	for i := range r.starts {
		w := rng.Intn(reduceArray - reduceWindow)
		r.starts[i] = w
		var sum uint64
		for j := w; j < w+reduceWindow; j++ {
			sum += vals[j]
		}
		r.exp[i] = sum
	}
	return r
}

func (r *reduceLoad) body(c *wsrt.Ctx, fid, i int) {
	w := r.starts[i]
	sum := c.ParallelReduce(fid, w, w+reduceWindow, reduceGrain,
		func(cc *wsrt.Ctx, lo, hi int) uint64 {
			var s uint64
			for j := lo; j < hi; j++ {
				s += cc.Load(r.arr + mem.Addr(j*8))
			}
			return s
		},
		func(a, b uint64) uint64 { return a + b })
	c.Store(r.resultAddr(i), sum)
}

func (r *reduceLoad) resultAddr(i int) mem.Addr { return r.results + mem.Addr(i*8) }
func (r *reduceLoad) expected(i int) uint64     { return r.exp[i] }
