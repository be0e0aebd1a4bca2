package apps

import (
	"fmt"

	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// ligra-mis: maximal independent set by deterministic greedy rounds
// over hashed priorities (Ligra's MIS): a vertex joins the set when
// every not-yet-excluded neighbor has a larger priority; neighbors of
// set members are excluded.

func init() {
	register(&App{Name: "ligra-mis", Method: "pf", DefaultGrain: 32, Setup: setupMIS})
}

// Vertex states.
const (
	misUndecided = 0
	misIn        = 1
	misOut       = 2
)

// misPriority is a deterministic pseudo-random priority, made unique
// per vertex (low bits carry v) so adjacent vertices can never tie.
func misPriority(v int) uint64 {
	h := uint64(v)*0x9E3779B97F4A7C15 + 0x1234567
	h ^= h >> 29
	return (h &^ 0xFFFFF) | uint64(v)
}

func setupMIS(rt *wsrt.RT, size Size, grain int) *Instance {
	gc := newGctx(rt, size)
	m := rt.Mem()
	n := gc.g.N
	status := m.AllocWords(n)
	fid := rt.RegisterFunc("mis", 1024)

	// Phase A: undecided v joins IN when all relevant neighbors have
	// larger priority (reads last round's statuses; writes only its own
	// slot — race-free).
	phaseA := func(c *wsrt.Ctx, v int) {
		c.Compute(4)
		if c.Load(word(status, v)) != misUndecided {
			return
		}
		pv := misPriority(v)
		s, e := gc.degree(c, v)
		for i := s; i < e; i++ {
			c.Compute(4)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			if c.Load(word(status, u)) != misOut && misPriority(u) < pv {
				return
			}
		}
		c.Store(word(status, v), misIn)
	}
	// Phase B: undecided v with an IN neighbor becomes OUT.
	phaseB := func(c *wsrt.Ctx, v int) {
		c.Compute(4)
		if c.Load(word(status, v)) != misUndecided {
			return
		}
		s, e := gc.degree(c, v)
		for i := s; i < e; i++ {
			c.Compute(3)
			u := int(c.Load(gc.gm.EdgeAddr(i)))
			if c.Load(word(status, u)) == misIn {
				c.Store(word(status, v), misOut)
				return
			}
		}
	}

	run := func(serial bool) wsrt.Body {
		return func(c *wsrt.Ctx) {
			for {
				runPhase := func(phase func(*wsrt.Ctx, int)) {
					if serial {
						for v := 0; v < n; v++ {
							phase(c, v)
						}
					} else {
						c.ParallelFor(fid, 0, n, grain, func(cc *wsrt.Ctx, v int) { phase(cc, v) })
					}
				}
				runPhase(phaseA)
				runPhase(phaseB)
				// Main thread scans for remaining undecided vertices.
				done := true
				for v := 0; v < n; v++ {
					c.Compute(1)
					if c.Load(word(status, v)) == misUndecided {
						done = false
						break
					}
				}
				if done {
					return
				}
			}
		}
	}
	return &Instance{
		InputDesc: fmt.Sprintf("rMat %d vertices, %d edges", n, gc.g.M()),
		Root:      run(false), SerialRoot: run(true),
		Verify: func(read func(mem.Addr) uint64) error {
			// Independence + maximality (a valid MIS, checked against the
			// native graph).
			in := make([]bool, n)
			for v := 0; v < n; v++ {
				switch read(word(status, v)) {
				case misIn:
					in[v] = true
				case misOut:
				default:
					return fmt.Errorf("mis: vertex %d undecided", v)
				}
			}
			for v := 0; v < n; v++ {
				hasInNeighbor := false
				for _, u := range gc.g.Neighbors(v) {
					if in[u] {
						hasInNeighbor = true
						if in[v] {
							return fmt.Errorf("mis: adjacent %d and %d both in set", v, u)
						}
					}
				}
				if !in[v] && !hasInNeighbor {
					return fmt.Errorf("mis: vertex %d not in set and no neighbor in set", v)
				}
			}
			return nil
		},
	}
}
