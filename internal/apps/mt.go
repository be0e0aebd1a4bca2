package apps

import (
	"fmt"

	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// cilk5-mt: cache-oblivious out-of-place matrix transpose B = A^T,
// recursively splitting the larger dimension and forking the halves.

func init() {
	register(&App{
		Name:         "cilk5-mt",
		Method:       "ss",
		DefaultGrain: 16, // base tile edge
		Setup:        setupMT,
	})
}

func setupMT(rt *wsrt.RT, size Size, blk int) *Instance {
	n := map[Size]int{Test: 64, Ref: 256, Big: 512, Empty: 0, Unit: 1}[size]
	m := rt.Mem()
	A := m.AllocWords(n * n)
	B := m.AllocWords(n * n)
	rng := sim.NewRand(0x47)
	av := make([]uint64, n*n)
	for i := range av {
		av[i] = rng.Uint64()
		m.WriteWord(word(A, i), av[i])
	}

	fid := rt.RegisterFunc("mt", 768)

	var mt func(c *wsrt.Ctx, r0, c0, rows, cols int, par bool)
	mt = func(c *wsrt.Ctx, r0, c0, rows, cols int, par bool) {
		c.Compute(4)
		if rows <= blk && cols <= blk {
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					c.Compute(2)
					v := c.Load(word(A, (r0+i)*n+c0+j))
					c.Store(word(B, (c0+j)*n+r0+i), v)
				}
			}
			return
		}
		var f1, f2 func(*wsrt.Ctx)
		if rows >= cols {
			h := rows / 2
			f1 = func(cc *wsrt.Ctx) { mt(cc, r0, c0, h, cols, par) }
			f2 = func(cc *wsrt.Ctx) { mt(cc, r0+h, c0, rows-h, cols, par) }
		} else {
			h := cols / 2
			f1 = func(cc *wsrt.Ctx) { mt(cc, r0, c0, rows, h, par) }
			f2 = func(cc *wsrt.Ctx) { mt(cc, r0, c0+h, rows, cols-h, par) }
		}
		if par {
			c.Fork(fid, f1, f2)
		} else {
			f1(c)
			f2(c)
		}
	}

	return &Instance{
		InputDesc:  fmt.Sprintf("%dx%d transpose, tile %d", n, n, blk),
		Root:       func(c *wsrt.Ctx) { mt(c, 0, 0, n, n, true) },
		SerialRoot: func(c *wsrt.Ctx) { mt(c, 0, 0, n, n, false) },
		Verify: func(read func(mem.Addr) uint64) error {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got := read(word(B, j*n+i)); got != av[i*n+j] {
						return fmt.Errorf("mt: B[%d][%d] wrong", j, i)
					}
				}
			}
			return nil
		},
	}
}
