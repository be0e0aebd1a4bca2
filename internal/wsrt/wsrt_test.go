package wsrt

import (
	"testing"

	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// smallMachine builds a cut-down big.TINY system (1 big + 7 tiny on a
// 2x4 mesh) so runtime tests are fast.
func smallMachine(t testing.TB, tinyProto string, dts bool) *machine.Machine {
	t.Helper()
	base, err := machine.Lookup("bT/HCC-" + tinyProto)
	if err != nil {
		base, err = machine.Lookup("bT/MESI")
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := base
	cfg.Name = "test-" + tinyProto
	cfg.NumBig, cfg.NumTiny = 1, 7
	cfg.Rows, cfg.Cols = 2, 4
	cfg.NumBanks = 4
	cfg.DTS = dts
	cfg.Deadline = 80_000_000
	return machine.New(cfg)
}

// fibProgram returns a root body computing fib(n) into out using the
// paper's Figure 2 recursive spawn-and-sync structure.
func fibProgram(fid int, n int, out mem.Addr) Body {
	var fib func(c *Ctx, n uint64, sum mem.Addr)
	fib = func(c *Ctx, n uint64, sum mem.Addr) {
		c.Compute(8)
		if n < 2 {
			c.Store(sum, n)
			return
		}
		x := c.Alloc(1)
		y := c.Alloc(1)
		c.Fork(fid,
			func(cc *Ctx) { fib(cc, n-1, x) },
			func(cc *Ctx) { fib(cc, n-2, y) },
		)
		c.Store(sum, c.Load(x)+c.Load(y))
	}
	return func(c *Ctx) { fib(c, uint64(n), out) }
}

const fib15 = 610

func runFib(t *testing.T, m *machine.Machine, v Variant) (*RT, uint64, sim.Time) {
	t.Helper()
	rt := New(m, v)
	fid := rt.RegisterFunc("fib", 512)
	out := m.Mem.AllocWords(1)
	if err := rt.Run(fibProgram(fid, 15, out)); err != nil {
		t.Fatalf("%s on %s: %v", v, m.Cfg.Name, err)
	}
	return rt, m.Cache.DebugReadWord(out), m.Kernel.Now()
}

func TestFibHWOnMESI(t *testing.T) {
	m := smallMachine(t, "mesi", false)
	m.Cfg.Name = "bT/MESI-small"
	rt, got, _ := runFib(t, m, HW)
	if got != fib15 {
		t.Fatalf("fib(15) = %d, want %d (stats %v)", got, fib15, rt.Stats)
	}
	if rt.Stats.Spawns == 0 {
		t.Fatal("no spawns recorded")
	}
}

func TestFibHCCOnAllProtocols(t *testing.T) {
	for _, p := range []string{"dnv", "gwt", "gwb"} {
		m := smallMachine(t, p, false)
		rt, got, _ := runFib(t, m, HCC)
		if got != fib15 {
			t.Errorf("%s: fib(15) = %d, want %d (stats %v)", p, got, fib15, rt.Stats)
		}
	}
}

func TestFibDTSOnAllProtocols(t *testing.T) {
	for _, p := range []string{"dnv", "gwt", "gwb"} {
		m := smallMachine(t, p, true)
		rt, got, _ := runFib(t, m, DTS)
		if got != fib15 {
			t.Errorf("%s: fib(15) = %d, want %d (stats %v)", p, got, fib15, rt.Stats)
		}
		if rt.Stats.StealHits == 0 {
			t.Errorf("%s: DTS run had zero successful steals", p)
		}
	}
}

func TestHWRuntimeOnHCCMachineFails(t *testing.T) {
	// Negative control (paper §III): without cache_invalidate/cache_flush
	// the runtime is NOT correct on software-centric coherence. The
	// failure mode is a wrong answer or a livelock (caught by the
	// deadline).
	m := smallMachine(t, "gwb", false)
	m.Cfg.Deadline = 20_000_000
	rt := New(m, HW)
	fid := rt.RegisterFunc("fib", 512)
	out := m.Mem.AllocWords(1)
	err := rt.Run(fibProgram(fid, 12, out))
	got := m.Cache.DebugReadWord(out)
	if err == nil && got == 144 {
		t.Fatal("HW runtime on GPU-WB machine worked; staleness modelling is broken")
	}
}

func TestParallelForCoversRange(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	rt := New(m, DTS)
	fid := rt.RegisterFunc("pf", 512)
	n := 300
	arr := m.Mem.AllocWords(n)
	if err := rt.Run(func(c *Ctx) {
		c.ParallelFor(fid, 0, n, 16, func(cc *Ctx, i int) {
			cc.Compute(10)
			cc.Store(arr+mem.Addr(i*8), uint64(i*i))
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Cache.DebugReadWord(arr + mem.Addr(i*8)); got != uint64(i*i) {
			t.Fatalf("arr[%d] = %d, want %d", i, got, i*i)
		}
	}
}

func TestParallelReduce(t *testing.T) {
	m := smallMachine(t, "dnv", false)
	rt := New(m, HCC)
	fid := rt.RegisterFunc("reduce", 512)
	n := 500
	arr := m.Mem.AllocWords(n)
	for i := 0; i < n; i++ {
		m.Mem.WriteWord(arr+mem.Addr(i*8), uint64(i))
	}
	out := m.Mem.AllocWords(1)
	if err := rt.Run(func(c *Ctx) {
		sum := c.ParallelReduce(fid, 0, n, 32,
			func(cc *Ctx, lo, hi int) uint64 {
				var s uint64
				for i := lo; i < hi; i++ {
					cc.Compute(2)
					s += cc.Load(arr + mem.Addr(i*8))
				}
				return s
			},
			func(a, b uint64) uint64 { return a + b })
		c.Store(out, sum)
	}); err != nil {
		t.Fatal(err)
	}
	want := uint64(n * (n - 1) / 2)
	if got := m.Cache.DebugReadWord(out); got != want {
		t.Fatalf("reduce = %d, want %d", got, want)
	}
}

func TestDeterministicCycleCounts(t *testing.T) {
	run := func() sim.Time {
		m := smallMachine(t, "gwb", true)
		_, got, cycles := runFib(t, m, DTS)
		if got != fib15 {
			t.Fatal("wrong answer")
		}
		return cycles
	}
	c1 := run()
	c2 := run()
	if c1 != c2 {
		t.Fatalf("nondeterministic: %d vs %d cycles", c1, c2)
	}
}

func TestParallelismSpeedsUp(t *testing.T) {
	// The same parallel_for on 8 cores should beat 1 worker thread by a
	// reasonable factor.
	elapsed := func(nt int) sim.Time {
		base, _ := machine.Lookup("bT/MESI")
		cfg := base
		cfg.NumBig, cfg.NumTiny = 0, nt
		cfg.Rows, cfg.Cols = 2, 4
		cfg.NumBanks = 4
		cfg.Deadline = 500_000_000
		m := machine.New(cfg)
		rt := New(m, HW)
		fid := rt.RegisterFunc("pf", 512)
		n := 2048
		arr := m.Mem.AllocWords(n)
		if err := rt.Run(func(c *Ctx) {
			c.ParallelFor(fid, 0, n, 32, func(cc *Ctx, i int) {
				cc.Compute(60)
				cc.Store(arr+mem.Addr(i*8), uint64(i))
			})
		}); err != nil {
			t.Fatal(err)
		}
		return m.Kernel.Now()
	}
	t1 := elapsed(1)
	t8 := elapsed(8)
	speedup := float64(t1) / float64(t8)
	if speedup < 3 {
		t.Fatalf("8-core speedup = %.2f, want >= 3 (t1=%d t8=%d)", speedup, t1, t8)
	}
}

func TestNativeRunMatchesSimulated(t *testing.T) {
	nm := mem.New()
	out := nm.AllocWords(1)
	NewNative(nm).Analyze(func(c *Ctx) {
		var fib func(c *Ctx, n uint64, sum mem.Addr)
		fib = func(c *Ctx, n uint64, sum mem.Addr) {
			if n < 2 {
				c.Store(sum, n)
				return
			}
			x, y := c.Alloc(1), c.Alloc(1)
			c.Fork(0,
				func(cc *Ctx) { fib(cc, n-1, x) },
				func(cc *Ctx) { fib(cc, n-2, y) })
			c.Store(sum, c.Load(x)+c.Load(y))
		}
		fib(c, 15, out)
	})
	if got := nm.ReadWord(out); got != fib15 {
		t.Fatalf("native fib(15) = %d, want %d", got, fib15)
	}
}

func TestStealStatsConsistent(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	rt, _, _ := runFib(t, m, DTS)
	s := rt.Stats
	if s.StealHits > s.StealTries {
		t.Fatalf("hits %d > tries %d", s.StealHits, s.StealTries)
	}
	if s.StolenExec != s.StealHits {
		t.Fatalf("stolen execs %d != steal hits %d", s.StolenExec, s.StealHits)
	}
	// Every spawned task must execute exactly once: spawns == local + stolen
	// minus the root (which is counted as a local exec but not a spawn).
	if s.LocalExecs+s.StolenExec != s.Spawns+1 {
		t.Fatalf("execs (%d+%d) != spawns+root (%d+1)", s.LocalExecs, s.StolenExec, s.Spawns)
	}
}

func TestAutoVariant(t *testing.T) {
	if v := AutoVariant(smallMachine(t, "mesi", false)); v != HW {
		t.Errorf("MESI -> %v, want HW", v)
	}
	if v := AutoVariant(smallMachine(t, "gwb", false)); v != HCC {
		t.Errorf("gwb -> %v, want HCC", v)
	}
	if v := AutoVariant(smallMachine(t, "gwb", true)); v != DTS {
		t.Errorf("gwb+uli -> %v, want DTS", v)
	}
}

func TestDTSReducesFlushes(t *testing.T) {
	// The headline mechanism (paper Table IV): DTS should drastically
	// reduce flush and invalidation counts versus HCC on GPU-WB.
	countOps := func(dts bool) (inv, flush, flushOps uint64) {
		m := smallMachine(t, "gwb", dts)
		v := HCC
		if dts {
			v = DTS
		}
		rt := New(m, v)
		fid := rt.RegisterFunc("fib", 512)
		out := m.Mem.AllocWords(1)
		// fib(16) spawns ~3000 tasks; with 8 threads only a small
		// fraction are stolen, which is the regime where DTS's
		// flush-on-steal-only optimization pays (paper §IV-C).
		if err := rt.Run(fibProgram(fid, 16, out)); err != nil {
			t.Fatal(err)
		}
		if got := m.Cache.DebugReadWord(out); got != 987 {
			t.Fatalf("fib(16) = %d, want 987", got)
		}
		for _, core := range m.Cores {
			inv += core.L1D.Stats.InvLines
			flush += core.L1D.Stats.FlushLines
			flushOps += core.L1D.Stats.FlushOps
		}
		return inv, flush, flushOps
	}
	invHCC, flushHCC, opsHCC := countOps(false)
	invDTS, flushDTS, opsDTS := countOps(true)
	if invDTS*2 >= invHCC {
		t.Errorf("DTS invalidated lines (%d) not well below HCC (%d)", invDTS, invHCC)
	}
	// Flush *instructions*: HCC flushes at every deque access; DTS only
	// when a steal actually happens. Expect >80% reduction even on this
	// steal-heavy 8-thread run.
	if opsDTS*5 >= opsHCC {
		t.Errorf("DTS flush ops (%d) not well below HCC (%d)", opsDTS, opsHCC)
	}
	// Flushed *lines*: fib tasks are tiny (little dirty data per task),
	// so the line-count reduction is smaller than the paper's Table IV
	// apps (IPT in the thousands), but DTS must still flush fewer.
	if flushDTS >= flushHCC {
		t.Errorf("DTS flushed lines (%d) not below HCC (%d)", flushDTS, flushHCC)
	}
}

// TestSection4COptimizationsReduceAMOs is the paper's §IV-C claim in
// exact form. DTS tracks has_stolen_child, so a join whose parent never
// lost a child to a thief is a plain read-modify-write, and its wait
// ends without a cache_invalidate. On one core nothing is ever stolen,
// so a whole fork-join program runs on plain accesses: its only AMO is
// the done flag. HCC on the same machine pays AMOs on every join, wait
// and deque lock, and invalidates at every deque access.
func TestSection4COptimizationsReduceAMOs(t *testing.T) {
	counters := func(v Variant) (amos, invOps, spawns uint64) {
		cfg, err := machine.Lookup("bT/HCC-DTS-gwb")
		if err != nil {
			t.Fatal(err)
		}
		cfg.NumBig, cfg.NumTiny = 1, 0
		cfg.Rows, cfg.Cols = 1, 1
		cfg.NumBanks = 1
		m := machine.New(cfg)
		rt := New(m, v)
		fid := rt.RegisterFunc("fib", 512)
		out := m.Mem.AllocWords(1)
		if err := rt.Run(fibProgram(fid, 12, out)); err != nil {
			t.Fatal(err)
		}
		if got := m.Cache.DebugReadWord(out); got != 144 {
			t.Fatalf("%s: fib(12) = %d, want 144", v, got)
		}
		if rt.Stats.StealTries != 0 {
			t.Fatalf("%s: %d steal attempts on one core", v, rt.Stats.StealTries)
		}
		core := m.Cores[0]
		return core.L1D.Stats.Amos, core.L1D.Stats.InvOps, rt.Stats.Spawns
	}
	amos, invOps, spawns := counters(DTS)
	if spawns == 0 || amos != 1 || invOps != 0 {
		t.Errorf("DTS: %d AMOs and %d invalidates over %d spawns; want 1 AMO (the done flag) and none",
			amos, invOps, spawns)
	}
	hccAmos, hccInv, _ := counters(HCC)
	if hccAmos <= spawns || hccInv <= spawns {
		t.Errorf("HCC: %d AMOs and %d invalidates over %d spawns; want more than one of each per spawn",
			hccAmos, hccInv, spawns)
	}
}
