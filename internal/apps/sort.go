package apps

import (
	"fmt"
	"sort"

	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/wsrt"
)

// cilk5-cs: parallel mergesort following Cilk-5's cilksort: recursive
// spawn-and-sync over halves, a *parallel* divide-and-conquer merge
// (split the longer run at its median, binary-search the split point in
// the shorter run, merge the two halves in parallel), and a serial
// insertion sort below the grain.

func init() {
	register(&App{
		Name:         "cilk5-cs",
		Method:       "ss",
		DefaultGrain: 64,
		Setup:        setupSort,
	})
}

func setupSort(rt *wsrt.RT, size Size, grain int) *Instance {
	n := map[Size]int{Test: 512, Ref: 8192, Big: 32768, Empty: 0, Unit: 1}[size]
	m := rt.Mem()
	data := m.AllocWords(n)
	tmp := m.AllocWords(n)
	rng := sim.NewRand(0xC5)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() % 1_000_000
		m.WriteWord(word(data, i), vals[i])
	}
	want := append([]uint64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	fid := rt.RegisterFunc("cs-sort", 1536)
	fidMerge := rt.RegisterFunc("cs-merge", 1024)

	// insertionSort sorts data[lo,hi) in place.
	insertionSort := func(c *wsrt.Ctx, lo, hi int) {
		for i := lo + 1; i < hi; i++ {
			c.Compute(3)
			v := c.Load(word(data, i))
			j := i - 1
			for j >= lo {
				c.Compute(2)
				u := c.Load(word(data, j))
				if u <= v {
					break
				}
				c.Store(word(data, j+1), u)
				j--
			}
			c.Store(word(data, j+1), v)
		}
	}

	// serialMerge merges data[lo1,hi1) and data[lo2,hi2) into tmp[dst..].
	serialMerge := func(c *wsrt.Ctx, lo1, hi1, lo2, hi2, dst int) {
		i, j, k := lo1, lo2, dst
		for i < hi1 || j < hi2 {
			c.Compute(4)
			var v uint64
			switch {
			case i >= hi1:
				v = c.Load(word(data, j))
				j++
			case j >= hi2:
				v = c.Load(word(data, i))
				i++
			default:
				a, b := c.Load2(word(data, i), word(data, j))
				if a <= b {
					v = a
					i++
				} else {
					v = b
					j++
				}
			}
			c.Store(word(tmp, k), v)
			k++
		}
	}

	// upperBound finds the first index in data[lo,hi) with value > v.
	upperBound := func(c *wsrt.Ctx, lo, hi int, v uint64) int {
		for lo < hi {
			c.Compute(4)
			mid := (lo + hi) / 2
			if c.Load(word(data, mid)) <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// pmerge is cilksort's parallel merge: split the longer run at its
	// median, binary-search the matching split in the shorter run, and
	// merge the two sub-pairs in parallel.
	var pmerge func(c *wsrt.Ctx, lo1, hi1, lo2, hi2, dst int, par bool)
	pmerge = func(c *wsrt.Ctx, lo1, hi1, lo2, hi2, dst int, par bool) {
		c.Compute(6)
		n1, n2 := hi1-lo1, hi2-lo2
		if n1 < n2 {
			lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
			n1, n2 = n2, n1
		}
		if n1+n2 <= 2*grain || n1 <= 1 {
			serialMerge(c, lo1, hi1, lo2, hi2, dst)
			return
		}
		mid1 := (lo1 + hi1) / 2
		pivot := c.Load(word(data, mid1))
		mid2 := upperBound(c, lo2, hi2, pivot)
		dst2 := dst + (mid1 - lo1) + (mid2 - lo2)
		if par {
			c.Fork(fidMerge,
				func(cc *wsrt.Ctx) { pmerge(cc, lo1, mid1, lo2, mid2, dst, true) },
				func(cc *wsrt.Ctx) { pmerge(cc, mid1, hi1, mid2, hi2, dst2, true) })
		} else {
			pmerge(c, lo1, mid1, lo2, mid2, dst, false)
			pmerge(c, mid1, hi1, mid2, hi2, dst2, false)
		}
	}

	// copyBack copies tmp[lo,hi) back into data (parallel above grain).
	copyBack := func(c *wsrt.Ctx, lo, hi int, par bool) {
		body := func(cc *wsrt.Ctx, i int) {
			cc.Compute(1)
			cc.Copy(word(data, i), word(tmp, i))
		}
		if par {
			c.ParallelFor(fidMerge, lo, hi, 2*grain, body)
		} else {
			for i := lo; i < hi; i++ {
				body(c, i)
			}
		}
	}

	var msort func(c *wsrt.Ctx, lo, hi int, par bool)
	msort = func(c *wsrt.Ctx, lo, hi int, par bool) {
		c.Compute(6)
		if hi-lo <= grain {
			insertionSort(c, lo, hi)
			return
		}
		mid := lo + (hi-lo)/2
		if par {
			c.Fork(fid,
				func(cc *wsrt.Ctx) { msort(cc, lo, mid, true) },
				func(cc *wsrt.Ctx) { msort(cc, mid, hi, true) },
			)
		} else {
			msort(c, lo, mid, false)
			msort(c, mid, hi, false)
		}
		pmerge(c, lo, mid, mid, hi, lo, par)
		copyBack(c, lo, hi, par)
	}

	return &Instance{
		InputDesc:  fmt.Sprintf("%d keys", n),
		Root:       func(c *wsrt.Ctx) { msort(c, 0, n, true) },
		SerialRoot: func(c *wsrt.Ctx) { msort(c, 0, n, false) },
		Verify: func(read func(mem.Addr) uint64) error {
			for i := 0; i < n; i++ {
				if got := read(word(data, i)); got != want[i] {
					return fmt.Errorf("cs: data[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		},
	}
}
