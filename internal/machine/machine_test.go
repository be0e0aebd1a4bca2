package machine

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
)

func TestAllNamedConfigsBuild(t *testing.T) {
	for _, name := range Names() {
		cfg, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m := New(cfg)
		if len(m.Cores) != cfg.NumCores() {
			t.Errorf("%s: %d cores built, want %d", name, len(m.Cores), cfg.NumCores())
		}
		if cfg.DTS && m.ULI == nil {
			t.Errorf("%s: DTS config without ULI fabric", name)
		}
		if !cfg.DTS && m.ULI != nil {
			t.Errorf("%s: non-DTS config with ULI fabric", name)
		}
	}
}

func TestPaperConfigTable(t *testing.T) {
	bt, err := Lookup("bT/MESI")
	if err != nil {
		t.Fatal(err)
	}
	if bt.NumBig != 4 || bt.NumTiny != 60 {
		t.Errorf("bT core counts = %d big, %d tiny", bt.NumBig, bt.NumTiny)
	}
	if bt.Rows != 8 || bt.Cols != 8 || bt.NumBanks != 8 {
		t.Error("bT mesh/bank geometry wrong")
	}
	if bt.L1BigBytes != 64*1024 || bt.L1TinyBytes != 4*1024 {
		t.Error("L1 sizes wrong")
	}
	if bt.L2SetsPerBank*bt.L2Ways*64 != 512*1024 {
		t.Error("L2 bank should be 512KB")
	}

	b256, _ := Lookup("bT256/HCC-DTS-gwb")
	if b256.NumCores() != 256 || b256.NumBanks != 32 || !b256.DTS {
		t.Error("bT256 geometry wrong")
	}
	if b256.DRAMBytesPerCycle != 4*bt.DRAMBytesPerCycle {
		t.Error("bT256 should have 4x bandwidth")
	}
}

func TestCoreKinds(t *testing.T) {
	m := New(mustCfg(t, "bT/HCC-gwb"))
	if !m.Big(0) || !m.Big(3) || m.Big(4) {
		t.Fatal("big/tiny split wrong")
	}
	if m.Cores[0].L1D.Protocol() != cache.MESI {
		t.Error("big core must be MESI")
	}
	if m.Cores[4].L1D.Protocol() != cache.GPUWB {
		t.Error("tiny core protocol wrong")
	}
	if !m.Cores[0].Cfg.Big || m.Cores[4].Cfg.Big {
		t.Error("cpu configs wrong")
	}
}

func TestPlacementDistinctNodes(t *testing.T) {
	for _, name := range []string{"bT/MESI", "bT256/MESI", "O3x8", "tiny64"} {
		m := New(mustCfg(t, name))
		seen := map[int]bool{}
		for c := range m.Cores {
			n := int(nodeOf(m, c))
			if seen[n] {
				t.Fatalf("%s: two cores share node %d", name, n)
			}
			seen[n] = true
		}
	}
}

func TestSmokeRunSimpleProgram(t *testing.T) {
	m := New(mustCfg(t, "bT/HCC-gwb"))
	a := m.Mem.Alloc(64)
	done := make([]bool, 2)
	m.Spawn(0, func(c *cpu.Core) { // big core
		c.Compute(10)
		c.Store(a, 5)
		done[0] = true
	})
	m.Spawn(4, func(c *cpu.Core) { // tiny core
		c.Compute(100)
		c.Amo(a, cache.AmoAdd, 1, 0)
		done[1] = true
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !done[0] || !done[1] {
		t.Fatal("threads did not finish")
	}
}

// TestSpawnDrainsQueuedOps: a thread whose body ends on queued ops
// (Compute and Store return before they issue) still issues them before
// it finishes: the store reaches memory and the cycles are on the books.
func TestSpawnDrainsQueuedOps(t *testing.T) {
	m := New(mustCfg(t, "bT/HCC-gwb"))
	a := m.Mem.Alloc(64)
	m.Spawn(4, func(c *cpu.Core) {
		c.Compute(100)
		c.Store(a, 5)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	c := m.Cores[4]
	if c.Insts != 101 || c.Cycles[cpu.ClassOther] < 100 || c.Cycles[cpu.ClassStore] == 0 {
		t.Fatalf("queued ops never issued: insts %d, cycles %v", c.Insts, c.Cycles)
	}
	if got := m.Cache.DebugReadWord(a); got != 5 {
		t.Fatalf("stored word reads %d, want 5", got)
	}
}

// TestInterruptOn: a context that is already dead aborts the run before
// its first event, whatever the goroutine scheduler does; one cancelled
// mid-run aborts it from then on. The core below never stops by itself.
func TestInterruptOn(t *testing.T) {
	spin := func(c *cpu.Core) {
		for {
			c.Compute(10)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(mustCfg(t, "bT8/HCC-gwb"))
	defer m.InterruptOn(ctx, "dead job")()
	m.Spawn(0, spin)
	err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "interrupted: dead job cancelled: context canceled") {
		t.Fatalf("err = %v, want the interrupt", err)
	}
	if m.Kernel.Fired() != 0 {
		t.Fatalf("%d events fired under a dead context", m.Kernel.Fired())
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	m = New(mustCfg(t, "bT8/HCC-gwb"))
	defer m.InterruptOn(ctx, "live job")()
	m.Spawn(0, spin)
	m.Kernel.At(1000, cancel)
	err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "interrupted: live job cancelled: context canceled") {
		t.Fatalf("err = %v, want the interrupt", err)
	}
	if m.Kernel.Now() < 1000 {
		t.Fatalf("interrupted at cycle %d, before the cancel at 1000", m.Kernel.Now())
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestNewIsCheap: a cache set exists once a fill touches it, and a mesh
// link, L2 port or DRAM channel is a plain value in its owner, so
// building the 64-core machine pays for its cores, mesh and set tables,
// not for the 4 MB of L2 and 64 L1s it configures (about 11.7 MB in
// 79 300 objects when every set was built up front, 0.7 MB in 1 600
// with a named, separately allocated resource per link, 0.7 MB in 400
// now).
func TestNewIsCheap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	cfg := mustCfg(t, "bT/HCC-DTS-gwb")
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	objs := testing.AllocsPerRun(runs, func() { New(cfg) })
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes one warm-up call besides the counted runs.
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) / (1 << 20)
	t.Logf("machine.New(%s): %.2f MB, %.0f objects", cfg.Name, mb, objs)
	if mb >= 2 || objs >= 500 {
		t.Fatalf("machine.New(%s) allocates %.2f MB in %.0f objects, want under 2 MB and 500",
			cfg.Name, mb, objs)
	}
}

func mustCfg(t *testing.T, name string) Config {
	t.Helper()
	c, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// nodeOf recovers a core's mesh node via the cache system config.
func nodeOf(m *Machine, core int) int {
	// The L1's node is private; use mesh geometry via Spawn-free check:
	// hop count from itself must be 0. Simplest: recompute placement.
	nodes := placeCores(m.Mesh, m.Cfg)
	return int(nodes[core])
}
