package apps

import (
	"fmt"

	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// cilk5-mm: blocked recursive matrix multiplication C = A * B with
// integer elements (exact verification against a naive native product).
// The recursion forks over the four C quadrants; each quadrant performs
// its two k-half products sequentially.

func init() {
	register(&App{
		Name:         "cilk5-mm",
		Method:       "ss",
		DefaultGrain: 8, // base block size
		Setup:        setupMM,
	})
}

func setupMM(rt *wsrt.RT, size Size, blk int) *Instance {
	n := map[Size]int{Test: 32, Ref: 64, Big: 128, Empty: 0, Unit: 1}[size]
	m := rt.Mem()
	A := m.AllocWords(n * n)
	B := m.AllocWords(n * n)
	C := m.AllocWords(n * n)
	rng := sim.NewRand(0x3A)
	av := make([]uint64, n*n)
	bv := make([]uint64, n*n)
	for i := range av {
		av[i] = rng.Uint64() % 97
		bv[i] = rng.Uint64() % 89
		m.WriteWord(word(A, i), av[i])
		m.WriteWord(word(B, i), bv[i])
	}
	want := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := av[i*n+k]
			for j := 0; j < n; j++ {
				want[i*n+j] += a * bv[k*n+j]
			}
		}
	}

	fid := rt.RegisterFunc("mm", 1024)

	// base: C[cr..+s, cc..+s] += A[ar..,ak..] * B[bk..,bc..] serially.
	base := func(c *wsrt.Ctx, cr, cc0, ar, ac, br, bc, s int) {
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				c.Compute(2)
				v := c.Load(word(C, (cr+i)*n+cc0+j))
				for k := 0; k < s; k++ {
					c.Compute(3)
					v += c.Load(word(A, (ar+i)*n+ac+k)) * c.Load(word(B, (br+k)*n+bc+j))
				}
				c.Store(word(C, (cr+i)*n+cc0+j), v)
			}
		}
	}
	var mm func(c *wsrt.Ctx, cr, cc0, ar, ac, br, bc, s int, par bool)
	mm = func(c *wsrt.Ctx, cr, cc0, ar, ac, br, bc, s int, par bool) {
		c.Compute(4)
		if s <= blk {
			base(c, cr, cc0, ar, ac, br, bc, s)
			return
		}
		h := s / 2
		quad := func(ci, cj int) func(*wsrt.Ctx) {
			return func(cc *wsrt.Ctx) {
				mm(cc, cr+ci*h, cc0+cj*h, ar+ci*h, ac, br, bc+cj*h, h, par)
				mm(cc, cr+ci*h, cc0+cj*h, ar+ci*h, ac+h, br+h, bc+cj*h, h, par)
			}
		}
		if par {
			c.Fork(fid, quad(0, 0), quad(0, 1), quad(1, 0), quad(1, 1))
		} else {
			for ci := 0; ci < 2; ci++ {
				for cj := 0; cj < 2; cj++ {
					quad(ci, cj)(c)
				}
			}
		}
	}

	return &Instance{
		InputDesc:  fmt.Sprintf("%dx%d blocked matmul, block %d", n, n, blk),
		Root:       func(c *wsrt.Ctx) { mm(c, 0, 0, 0, 0, 0, 0, n, true) },
		SerialRoot: func(c *wsrt.Ctx) { mm(c, 0, 0, 0, 0, 0, 0, n, false) },
		Verify: func(read func(mem.Addr) uint64) error {
			for i := 0; i < n*n; i++ {
				if got := read(word(C, i)); got != want[i] {
					return fmt.Errorf("mm: C[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}
