package wsrt

import (
	"testing"
	"testing/quick"

	"bigtiny/internal/cache"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
)

func TestParallelForRangeCoversDisjointRanges(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	rt := New(m, DTS)
	fid := rt.RegisterFunc("pfr", 512)
	n := 257 // deliberately not a power of two
	arr := m.Mem.AllocWords(n)
	if err := rt.Run(func(c *Ctx) {
		c.ParallelForRange(fid, 0, n, 10, func(cc *Ctx, lo, hi int) {
			if hi-lo > 10 || hi-lo <= 0 {
				t.Errorf("leaf range [%d,%d) violates grain", lo, hi)
			}
			for i := lo; i < hi; i++ {
				cc.Compute(5)
				// Fail on double-visit: add, don't overwrite.
				cc.Amo(arr+mem.Addr(i*8), cache.AmoAdd, uint64(i)+1, 0)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Cache.DebugReadWord(arr + mem.Addr(i*8)); got != uint64(i)+1 {
			t.Fatalf("index %d visited %s", i, map[bool]string{true: "never", false: "twice"}[got == 0])
		}
	}
}

func TestForkNoBodiesIsNoop(t *testing.T) {
	m := smallMachine(t, "gwb", false)
	rt := New(m, HCC)
	ran := false
	if err := rt.Run(func(c *Ctx) {
		c.Fork(0)
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("root did not complete")
	}
	if rt.Stats.Spawns != 0 {
		t.Fatal("empty fork spawned tasks")
	}
}

func TestParallelForEmptyRange(t *testing.T) {
	m := smallMachine(t, "mesi", false)
	rt := New(m, HW)
	if err := rt.Run(func(c *Ctx) {
		c.ParallelFor(0, 5, 5, 4, func(cc *Ctx, i int) {
			t.Error("body invoked for empty range")
		})
		c.ParallelFor(0, 7, 3, 4, func(cc *Ctx, i int) {
			t.Error("body invoked for negative range")
		})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDequeOverflowIsMachineCrash(t *testing.T) {
	// Spawning more unconsumed tasks than the deque holds must surface
	// as a simulated-machine crash (an error from Run), not a Go panic.
	// A single-core machine guarantees no thief drains the deque while
	// the spawner floods it.
	base, err0 := machine.Lookup("IOx1")
	if err0 != nil {
		t.Fatal(err0)
	}
	base.Deadline = 100_000_000_000
	m := machine.New(base)
	rt := New(m, HW)
	fid := rt.RegisterFunc("flood", 256)
	err := rt.Run(func(c *Ctx) {
		p := c.cur
		c.Store(p+descRC*8, uint64(dequeCapacity+10))
		for i := 0; i < dequeCapacity+10; i++ {
			c.spawnTask(c.newTask(fid, func(cc *Ctx) {}))
		}
		c.wait(p)
	})
	if err == nil {
		t.Fatal("deque overflow went unnoticed")
	}
}

// Property: a random fork tree computes the same result simulated (on
// an HCC machine) as natively — the runtime's coherence discipline
// never changes program semantics.
func TestRandomForkTreeSimMatchesNative(t *testing.T) {
	type shape struct {
		Widths []uint8
		Depth  uint8
	}
	f := func(sh shape) bool {
		depth := int(sh.Depth%3) + 1
		widths := sh.Widths
		if len(widths) == 0 {
			widths = []uint8{2}
		}
		// The program: a recursive tree where each node at level l forks
		// widths[l % len] children and leaves add a hash of their path
		// into an accumulator via AMO.
		build := func(c *Ctx, acc mem.Addr) {
			var rec func(cc *Ctx, level int, path uint64)
			rec = func(cc *Ctx, level int, path uint64) {
				cc.Compute(3)
				if level == depth {
					cc.Amo(acc, cache.AmoAdd, path*2654435761+1, 0)
					return
				}
				w := int(widths[level%len(widths)]%3) + 1
				bodies := make([]Body, w)
				for i := 0; i < w; i++ {
					i := i
					bodies[i] = func(c2 *Ctx) { rec(c2, level+1, path*7+uint64(i)) }
				}
				cc.Fork(0, bodies...)
			}
			rec(c, 0, 1)
		}

		// Native run.
		nm := mem.New()
		nacc := nm.AllocWords(1)
		NewNative(nm).Analyze(func(c *Ctx) { build(c, nacc) })
		want := nm.ReadWord(nacc)

		// Simulated run on the most demanding protocol.
		m := smallMachine(t, "gwb", true)
		rt := New(m, DTS)
		acc := m.Mem.AllocWords(1)
		if err := rt.Run(func(c *Ctx) { build(c, acc) }); err != nil {
			t.Log(err)
			return false
		}
		return m.Cache.DebugReadWord(acc) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterFuncFootprints(t *testing.T) {
	m := smallMachine(t, "mesi", false)
	rt := New(m, HW)
	a := rt.RegisterFunc("a", 1024)
	b := rt.RegisterFunc("b", 0)
	if a == b {
		t.Fatal("duplicate fids")
	}
	if rt.footprint(a) != 1024 {
		t.Fatal("explicit footprint lost")
	}
	if rt.footprint(b) != 1024 { // default
		t.Fatalf("default footprint = %d", rt.footprint(b))
	}
	if rt.footprint(9999) != 1024 {
		t.Fatal("out-of-range fid should use default")
	}
}

func TestParallelForAuto(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	rt := New(m, DTS)
	fid := rt.RegisterFunc("auto", 512)
	n := 1000
	arr := m.Mem.AllocWords(n)
	if err := rt.Run(func(c *Ctx) {
		c.ParallelForAuto(fid, 0, n, func(cc *Ctx, i int) {
			cc.Compute(10)
			cc.Store(arr+mem.Addr(i*8), uint64(i)*3)
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Cache.DebugReadWord(arr + mem.Addr(i*8)); got != uint64(i)*3 {
			t.Fatalf("arr[%d] = %d", i, got)
		}
	}
	// The heuristic must actually have split the range: with 8 threads
	// and n=1000 the grain is ~15, giving >= 64 leaf tasks.
	if rt.Stats.Spawns < 64 {
		t.Fatalf("auto grain spawned only %d tasks", rt.Stats.Spawns)
	}
}

func TestParallelForAutoSingleThread(t *testing.T) {
	// nthreads == 1: grain heuristic must not divide by zero or stall.
	base, err := machine.Lookup("IOx1")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(base)
	rt := New(m, HW)
	sum := m.Mem.AllocWords(1)
	if err := rt.Run(func(c *Ctx) {
		c.ParallelForAuto(0, 0, 10, func(cc *Ctx, i int) {
			cc.Amo(sum, cache.AmoAdd, uint64(i), 0)
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Cache.DebugReadWord(sum); got != 45 {
		t.Fatalf("sum = %d, want 45", got)
	}
}
