package apps

import (
	"fmt"
	"math"

	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// cilk5-lu: recursive blocked LU decomposition (no pivoting; the input
// is made diagonally dominant). The recursion follows Cilk-5's lu:
//
//	lu(A):  lu(A00)
//	        fork{ lowerSolve(A01), upperSolve(A10) }
//	        A11 -= A10 * A01   (recursive, parallel)
//	        lu(A11)
//
// Values are float64 stored as bit patterns in simulated words. The
// operation order is schedule-independent, so results are compared
// bitwise against a plain-Go mirror of the same recursion.

func init() {
	register(&App{
		Name:         "cilk5-lu",
		Method:       "ss",
		DefaultGrain: 8, // base block size
		Setup:        setupLU,
	})
}

func setupLU(rt *wsrt.RT, size Size, blk int) *Instance {
	n := map[Size]int{Test: 32, Ref: 128, Big: 128, Empty: 0, Unit: 1}[size]
	m := rt.Mem()
	A := m.AllocWords(n * n)
	rng := sim.NewRand(0x10)
	ref := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float64(rng.Intn(1000))/100 + 1
			if i == j {
				v += float64(n) * 16
			}
			ref[i*n+j] = v
			m.WriteWord(word(A, i*n+j), math.Float64bits(v))
		}
	}
	luNativeRecursive(ref, n, 0, 0, n, blk)

	fid := rt.RegisterFunc("lu", 2048)
	at := func(i, j int) mem.Addr { return word(A, i*n+j) }
	ld := func(c *wsrt.Ctx, i, j int) float64 { return math.Float64frombits(c.Load(at(i, j))) }
	st := func(c *wsrt.Ctx, i, j int, v float64) { c.Store(at(i, j), math.Float64bits(v)) }

	// serialLU factorizes the s x s block at (r0,c0) in place.
	serialLU := func(c *wsrt.Ctx, r0, c0, s int) {
		for k := 0; k < s; k++ {
			pivot := ld(c, r0+k, c0+k)
			for i := k + 1; i < s; i++ {
				c.Compute(4)
				lik := ld(c, r0+i, c0+k) / pivot
				st(c, r0+i, c0+k, lik)
				for j := k + 1; j < s; j++ {
					c.Compute(3)
					st(c, r0+i, c0+j, ld(c, r0+i, c0+j)-lik*ld(c, r0+k, c0+j))
				}
			}
		}
	}
	// forwardCol solves L(lr,lc,s) * x = b for one column (unit lower
	// triangular), in place.
	forwardCol := func(c *wsrt.Ctx, lr, lc, s, br, bc int) {
		for i := 0; i < s; i++ {
			c.Compute(2)
			v := ld(c, br+i, bc)
			for k := 0; k < i; k++ {
				c.Compute(3)
				v -= ld(c, lr+i, lc+k) * ld(c, br+k, bc)
			}
			st(c, br+i, bc, v)
		}
	}
	// backRow solves x * U(ur,uc,s) = b for one row, in place.
	backRow := func(c *wsrt.Ctx, ur, uc, s, br, bc int) {
		for j := 0; j < s; j++ {
			c.Compute(2)
			v := ld(c, br, bc+j)
			for k := 0; k < j; k++ {
				c.Compute(3)
				v -= ld(c, br, bc+k) * ld(c, ur+k, uc+j)
			}
			st(c, br, bc+j, v/ld(c, ur+j, uc+j))
		}
	}

	// lowerSolve solves L * X = B where B is s rows x w cols at (br,bc),
	// forking over column halves.
	var lowerSolve func(c *wsrt.Ctx, lr, lc, s, br, bc, w int, par bool)
	lowerSolve = func(c *wsrt.Ctx, lr, lc, s, br, bc, w int, par bool) {
		c.Compute(4)
		if w <= blk {
			for j := 0; j < w; j++ {
				forwardCol(c, lr, lc, s, br, bc+j)
			}
			return
		}
		h := w / 2
		if par {
			c.Fork(fid,
				func(cc *wsrt.Ctx) { lowerSolve(cc, lr, lc, s, br, bc, h, true) },
				func(cc *wsrt.Ctx) { lowerSolve(cc, lr, lc, s, br, bc+h, w-h, true) })
		} else {
			lowerSolve(c, lr, lc, s, br, bc, h, false)
			lowerSolve(c, lr, lc, s, br, bc+h, w-h, false)
		}
	}
	// upperSolve solves X * U = B where B is h rows x s cols at (br,bc),
	// forking over row halves.
	var upperSolve func(c *wsrt.Ctx, ur, uc, s, br, bc, h int, par bool)
	upperSolve = func(c *wsrt.Ctx, ur, uc, s, br, bc, h int, par bool) {
		c.Compute(4)
		if h <= blk {
			for i := 0; i < h; i++ {
				backRow(c, ur, uc, s, br+i, bc)
			}
			return
		}
		half := h / 2
		if par {
			c.Fork(fid,
				func(cc *wsrt.Ctx) { upperSolve(cc, ur, uc, s, br, bc, half, true) },
				func(cc *wsrt.Ctx) { upperSolve(cc, ur, uc, s, br+half, bc, h-half, true) })
		} else {
			upperSolve(c, ur, uc, s, br, bc, half, false)
			upperSolve(c, ur, uc, s, br+half, bc, h-half, false)
		}
	}
	// matmulSub computes C -= A*B for s x s blocks, forking over the
	// four C quadrants; the k dimension is processed sequentially
	// (first half then second), keeping summation order fixed.
	var matmulSub func(c *wsrt.Ctx, cr, cc0, ar, ac, br, bc, s int, par bool)
	matmulSub = func(c *wsrt.Ctx, cr, cc0, ar, ac, br, bc, s int, par bool) {
		c.Compute(4)
		if s <= blk {
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					c.Compute(2)
					v := ld(c, cr+i, cc0+j)
					for k := 0; k < s; k++ {
						c.Compute(3)
						v -= ld(c, ar+i, ac+k) * ld(c, br+k, bc+j)
					}
					st(c, cr+i, cc0+j, v)
				}
			}
			return
		}
		h := s / 2
		quad := func(ci, cj int) func(*wsrt.Ctx) {
			return func(cc *wsrt.Ctx) {
				matmulSub(cc, cr+ci*h, cc0+cj*h, ar+ci*h, ac, br, bc+cj*h, h, par)
				matmulSub(cc, cr+ci*h, cc0+cj*h, ar+ci*h, ac+h, br+h, bc+cj*h, h, par)
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

	var lu func(c *wsrt.Ctx, r0, c0, s int, par bool)
	lu = func(c *wsrt.Ctx, r0, c0, s int, par bool) {
		c.Compute(6)
		if s <= blk {
			serialLU(c, r0, c0, s)
			return
		}
		h := s / 2
		lu(c, r0, c0, h, par)
		if par {
			c.Fork(fid,
				func(cc *wsrt.Ctx) { lowerSolve(cc, r0, c0, h, r0, c0+h, s-h, true) },
				func(cc *wsrt.Ctx) { upperSolve(cc, r0, c0, h, r0+h, c0, s-h, true) })
		} else {
			lowerSolve(c, r0, c0, h, r0, c0+h, s-h, false)
			upperSolve(c, r0, c0, h, r0+h, c0, s-h, false)
		}
		matmulSub(c, r0+h, c0+h, r0+h, c0, r0, c0+h, s-h, par)
		lu(c, r0+h, c0+h, s-h, par)
	}

	return &Instance{
		InputDesc:  fmt.Sprintf("%dx%d matrix, block %d", n, n, blk),
		Root:       func(c *wsrt.Ctx) { lu(c, 0, 0, n, true) },
		SerialRoot: func(c *wsrt.Ctx) { lu(c, 0, 0, n, false) },
		Verify: func(read func(mem.Addr) uint64) error {
			for i := 0; i < n*n; i++ {
				if got := read(word(A, i)); got != math.Float64bits(ref[i]) {
					return fmt.Errorf("lu: A[%d] = %v, want %v",
						i, math.Float64frombits(got), ref[i])
				}
			}
			return nil
		},
	}
}

// luNativeRecursive mirrors the simulated recursion exactly in plain Go
// (identical floating-point operation order).
func luNativeRecursive(a []float64, n, r0, c0, s, blk int) {
	ld := func(i, j int) float64 { return a[i*n+j] }
	st := func(i, j int, v float64) { a[i*n+j] = v }
	if s <= blk {
		for k := 0; k < s; k++ {
			p := ld(r0+k, c0+k)
			for i := k + 1; i < s; i++ {
				lik := ld(r0+i, c0+k) / p
				st(r0+i, c0+k, lik)
				for j := k + 1; j < s; j++ {
					st(r0+i, c0+j, ld(r0+i, c0+j)-lik*ld(r0+k, c0+j))
				}
			}
		}
		return
	}
	h := s / 2
	luNativeRecursive(a, n, r0, c0, h, blk)
	// lowerSolve on A01 (column order matches the simulated leaf order).
	for j := 0; j < s-h; j++ {
		for i := 0; i < h; i++ {
			v := ld(r0+i, c0+h+j)
			for k := 0; k < i; k++ {
				v -= ld(r0+i, c0+k) * ld(r0+k, c0+h+j)
			}
			st(r0+i, c0+h+j, v)
		}
	}
	// upperSolve on A10.
	for i := 0; i < s-h; i++ {
		for j := 0; j < h; j++ {
			v := ld(r0+h+i, c0+j)
			for k := 0; k < j; k++ {
				v -= ld(r0+h+i, c0+k) * ld(r0+k, c0+j)
			}
			st(r0+h+i, c0+j, v/ld(r0+j, c0+j))
		}
	}
	luNativeMatmulSub(a, n, r0+h, c0+h, r0+h, c0, r0, c0+h, s-h, blk)
	luNativeRecursive(a, n, r0+h, c0+h, s-h, blk)
}

func luNativeMatmulSub(a []float64, n, cr, cc, ar, ac, br, bc, s, blk int) {
	if s <= blk {
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				v := a[(cr+i)*n+cc+j]
				for k := 0; k < s; k++ {
					v -= a[(ar+i)*n+ac+k] * a[(br+k)*n+bc+j]
				}
				a[(cr+i)*n+cc+j] = v
			}
		}
		return
	}
	h := s / 2
	for ci := 0; ci < 2; ci++ {
		for cj := 0; cj < 2; cj++ {
			luNativeMatmulSub(a, n, cr+ci*h, cc+cj*h, ar+ci*h, ac, br, bc+cj*h, h, blk)
			luNativeMatmulSub(a, n, cr+ci*h, cc+cj*h, ar+ci*h, ac+h, br+h, bc+cj*h, h, blk)
		}
	}
}
