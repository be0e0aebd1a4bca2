package cpu

import (
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/dram"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// rig builds a 2-core system (core 0 with cfg0, core 1 tiny MESI) for
// core-model tests.
func rig(t *testing.T, cfg Config, proto cache.Protocol) (*sim.Kernel, *Core, *cache.System) {
	t.Helper()
	k := sim.NewKernel()
	mesh := noc.NewMesh(2, 2)
	sys := cache.NewSystem(cache.Config{
		NumCores:      1,
		CoreNode:      []noc.NodeID{mesh.Node(0, 0)},
		BankNode:      []noc.NodeID{mesh.Node(1, 0)},
		L2SetsPerBank: 64,
		L2Ways:        8,
		MCs:           []*dram.Controller{dram.NewController(dram.DefaultConfig())},
	}, mesh, mem.New())
	l1 := cache.NewL1(sys, 0, proto, cfg.L1IBytes, 2)
	core := New(0, cfg, l1, nil)
	return k, core, sys
}

// run runs body as core's thread and drains the core's queue after it,
// as machine.Spawn does.
func run(t *testing.T, k *sim.Kernel, core *Core, body func()) {
	t.Helper()
	k.NewProc("core", 0, func(p *sim.Proc) {
		core.Bind(p)
		body()
		core.Drain()
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestTinyComputeOneIPC(t *testing.T) {
	k, core, _ := rig(t, TinyConfig(), cache.MESI)
	run(t, k, core, func() {
		core.Compute(100)
	})
	if core.Cycles[ClassOther] != 100 {
		t.Fatalf("tiny compute cycles = %d, want 100", core.Cycles[ClassOther])
	}
	if core.Insts != 100 {
		t.Fatalf("insts = %d", core.Insts)
	}
}

func TestBigComputeWideIssue(t *testing.T) {
	k, core, _ := rig(t, BigConfig(), cache.MESI)
	run(t, k, core, func() {
		core.Compute(99)
	})
	want := uint64(99 / BigConfig().IssueWidth)
	if core.Cycles[ClassOther] != want {
		t.Fatalf("big compute cycles = %d, want %d", core.Cycles[ClassOther], want)
	}
}

func TestIssueDebtCarries(t *testing.T) {
	k, core, _ := rig(t, BigConfig(), cache.MESI)
	w := BigConfig().IssueWidth
	run(t, k, core, func() {
		for i := 0; i < 2*w; i++ {
			core.Compute(1) // 2*w single instructions at width w = 2 cycles
		}
	})
	if core.Cycles[ClassOther] != 2 {
		t.Fatalf("fractional issue cycles = %d, want 2", core.Cycles[ClassOther])
	}
}

func TestLoadStallAttribution(t *testing.T) {
	k, core, sys := rig(t, TinyConfig(), cache.MESI)
	a := sys.Mem().Alloc(64)
	sys.Mem().WriteWord(a, 55)
	var v1, v2 uint64
	run(t, k, core, func() {
		v1 = core.Load(a) // cold miss
		v2 = core.Load(a) // hit
	})
	if v1 != 55 || v2 != 55 {
		t.Fatalf("loads = %d,%d", v1, v2)
	}
	if core.Cycles[ClassLoad] < 20 {
		t.Fatalf("load cycles = %d; miss not charged", core.Cycles[ClassLoad])
	}
}

func TestBigOverlapsMissStalls(t *testing.T) {
	mkRun := func(cfg Config) uint64 {
		k, core, sys := rig(t, cfg, cache.MESI)
		base := sys.Mem().Alloc(64 * 64)
		run(t, k, core, func() {
			for i := 0; i < 32; i++ {
				core.Load(base + mem.Addr(i*64)) // all cold misses
			}
		})
		return core.Cycles[ClassLoad]
	}
	tiny := mkRun(TinyConfig())
	big := mkRun(BigConfig())
	if big*2 >= tiny {
		t.Fatalf("big core load stalls (%d) not much less than tiny (%d)", big, tiny)
	}
}

func TestAtomicNotOverlapped(t *testing.T) {
	k, core, sys := rig(t, BigConfig(), cache.GPUWB)
	a := sys.Mem().Alloc(64)
	run(t, k, core, func() {
		core.Amo(a, cache.AmoAdd, 1, 0)
	})
	if core.Cycles[ClassAtomic] < 10 {
		t.Fatalf("big-core L2 AMO cycles = %d; should pay full latency", core.Cycles[ClassAtomic])
	}
}

func TestFlushAttribution(t *testing.T) {
	k, core, sys := rig(t, TinyConfig(), cache.GPUWB)
	base := sys.Mem().Alloc(64 * 8)
	run(t, k, core, func() {
		for i := 0; i < 8; i++ {
			core.Store(base+mem.Addr(i*64), uint64(i))
		}
		core.Flush()
	})
	if core.Cycles[ClassFlush] == 0 {
		t.Fatal("flush cycles not attributed")
	}
}

func TestInstructionCacheColdVsWarm(t *testing.T) {
	k, core, _ := rig(t, TinyConfig(), cache.MESI)
	run(t, k, core, func() {
		core.SetFunc(1, 2048)
		core.Compute(512) // walks the 2KB footprint: cold fetch misses
		core.Drain()
		cold := core.Cycles[ClassInstFetch]
		if cold == 0 {
			t.Error("no cold instruction fetch misses")
		}
		core.Compute(512) // same code again: warm
		core.Drain()
		if core.Cycles[ClassInstFetch] != cold {
			t.Errorf("warm pass took fetch misses: %d -> %d", cold, core.Cycles[ClassInstFetch])
		}
	})
}

func TestInstructionCacheThrashing(t *testing.T) {
	// Tiny 4KB I$ cannot hold 8 x 2KB functions; big 64KB can.
	missesFor := func(cfg Config) uint64 {
		k, core, _ := rig(t, cfg, cache.MESI)
		run(t, k, core, func() {
			for pass := 0; pass < 3; pass++ {
				for f := 1; f <= 8; f++ {
					core.SetFunc(f, 2048)
					core.Compute(512)
				}
			}
		})
		return core.Cycles[ClassInstFetch]
	}
	tiny := missesFor(TinyConfig())
	big := missesFor(BigConfig())
	if tiny <= big {
		t.Fatalf("tiny I$ fetch stalls (%d) should exceed big (%d)", tiny, big)
	}
}

func TestTotalCyclesMatchesElapsed(t *testing.T) {
	k, core, sys := rig(t, TinyConfig(), cache.GPUWB)
	a := sys.Mem().Alloc(64)
	var end sim.Time
	run(t, k, core, func() {
		core.Compute(10)
		core.Load(a)
		core.Store(a, 3)
		core.Flush()
		core.Invalidate()
		end = core.Now()
	})
	if core.TotalCycles() != uint64(end) {
		t.Fatalf("attributed %d cycles, elapsed %d", core.TotalCycles(), end)
	}
}

func TestStoreBufferHidesMissLatency(t *testing.T) {
	// A single MESI store miss costs the core ~1 cycle (it retires in
	// the background); only a burst beyond the buffer depth stalls.
	k, core, sys := rig(t, TinyConfig(), cache.MESI)
	base := sys.Mem().Alloc(64 * 64)
	var first, burst uint64
	run(t, k, core, func() {
		core.Store(base, 1) // cold miss, buffered
		core.Drain()
		first = core.Cycles[ClassStore]
		for i := 1; i < 32; i++ {
			core.Store(base+mem.Addr(i*64), uint64(i))
		}
		core.Drain()
		burst = core.Cycles[ClassStore]
	})
	if first > 2 {
		t.Fatalf("single store miss stalled the core %d cycles", first)
	}
	if burst <= uint64(32) {
		t.Fatalf("store burst never back-pressured (total %d cycles)", burst)
	}
}

func TestAtomicDrainsStoreBuffer(t *testing.T) {
	k, core, sys := rig(t, TinyConfig(), cache.GPUWT)
	a := sys.Mem().Alloc(64)
	b := sys.Mem().Alloc(64)
	run(t, k, core, func() {
		core.Store(a, 7) // outstanding write-through
		core.Amo(b, cache.AmoAdd, 1, 0)
	})
	// The AMO must have waited for the store to reach the L2.
	if core.Cycles[ClassAtomic] < 10 {
		t.Fatalf("atomic did not fence the store buffer (%d cycles)", core.Cycles[ClassAtomic])
	}
}
