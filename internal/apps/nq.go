package apps

import (
	"fmt"

	"bigtiny/internal/cache"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// cilk5-nq: count all N-queens placements by backtracking. The top two
// rows are explored with parallel_for (the paper lists nq under pf);
// deeper rows backtrack serially. Each leaf adds its solution count to
// a global counter with an AMO (fine-grained synchronization).

func init() {
	register(&App{
		Name:         "cilk5-nq",
		Method:       "pf",
		DefaultGrain: 1, // board positions per task
		Setup:        setupNQ,
	})
}

// nqCount is an independent native solver for verification.
func nqCount(n int) uint64 {
	var count uint64
	cols := make([]int, 0, n)
	var rec func(row int)
	safe := func(row, col int) bool {
		for r, c := range cols {
			if c == col || c-col == row-r || col-c == row-r {
				return false
			}
		}
		return true
	}
	rec = func(row int) {
		if row == n {
			count++
			return
		}
		for col := 0; col < n; col++ {
			if safe(row, col) {
				cols = append(cols, col)
				rec(row + 1)
				cols = cols[:len(cols)-1]
			}
		}
	}
	rec(0)
	return count
}

func setupNQ(rt *wsrt.RT, size Size, grain int) *Instance {
	n := map[Size]int{Test: 7, Ref: 9, Big: 10, Empty: 0, Unit: 1}[size]
	m := rt.Mem()
	countAddr := m.AllocWords(1)
	want := nqCount(n)

	fid := rt.RegisterFunc("nq", 1024)

	// The board (placed columns per row) lives in simulated memory: each
	// task allocates its own copy so parent-written prefixes flow to
	// (potentially stolen) children through the memory system.
	solve := func(c *wsrt.Ctx, board mem.Addr, row int) uint64 {
		// Serial backtracking from `row` with the prefix in board.
		var rec func(row int) uint64
		prefix := make([]uint64, n)
		for r := 0; r < row; r++ {
			prefix[r] = c.Load(word(board, r))
		}
		safe := func(row int, col uint64) bool {
			for r := 0; r < row; r++ {
				c.Compute(4)
				pc := prefix[r]
				if pc == col || pc+uint64(row-r) == col || pc == col+uint64(row-r) {
					return false
				}
			}
			return true
		}
		rec = func(rw int) uint64 {
			if rw == n {
				return 1
			}
			var cnt uint64
			for col := uint64(0); col < uint64(n); col++ {
				c.Compute(3)
				if safe(rw, col) {
					prefix[rw] = col
					cnt += rec(rw + 1)
				}
			}
			return cnt
		}
		return rec(row)
	}

	body := func(c *wsrt.Ctx, i int) {
		// i encodes the first two rows: (col0, col1).
		col0, col1 := uint64(i/n), uint64(i%n)
		c.Compute(6)
		if col0 == col1 || col0+1 == col1 || col1+1 == col0 {
			return // attacked: prune
		}
		board := c.Alloc(n)
		c.Store(word(board, 0), col0)
		c.Store(word(board, 1), col1)
		cnt := solve(c, board, 2)
		if cnt > 0 {
			c.Amo(countAddr, cache.AmoAdd, cnt, 0)
		}
	}

	// The two-row decomposition assumes n >= 2 (it enumerates (col0,
	// col1) pairs); degenerate boards backtrack directly from row 0.
	runDirect := func(c *wsrt.Ctx) {
		board := c.Alloc(n + 1)
		if cnt := solve(c, board, 0); cnt > 0 {
			c.Amo(countAddr, cache.AmoAdd, cnt, 0)
		}
	}

	return &Instance{
		InputDesc: fmt.Sprintf("%d-queens", n),
		Root: func(c *wsrt.Ctx) {
			if n < 2 {
				runDirect(c)
				return
			}
			c.ParallelFor(fid, 0, n*n, grain, body)
		},
		SerialRoot: func(c *wsrt.Ctx) {
			if n < 2 {
				runDirect(c)
				return
			}
			for i := 0; i < n*n; i++ {
				body(c, i)
			}
		},
		Verify: func(read func(mem.Addr) uint64) error {
			if got := read(countAddr); got != want {
				return fmt.Errorf("nq: count = %d, want %d", got, want)
			}
			return nil
		},
	}
}
