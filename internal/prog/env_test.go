package prog

import (
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

func TestNativeEnvBasics(t *testing.T) {
	m := mem.New()
	e := NewNativeEnv(m)
	a := e.Alloc(4)
	e.Store(a, 7)
	if e.Load(a) != 7 {
		t.Fatal("native load/store broken")
	}
	if old := e.Amo(a, cache.AmoAdd, 3, 0); old != 7 {
		t.Fatalf("amo old = %d", old)
	}
	if e.Load(a) != 10 {
		t.Fatal("amo not applied")
	}
	if old := e.Amo(a, cache.AmoCAS, 10, 42); old != 10 || e.Load(a) != 42 {
		t.Fatal("CAS broken")
	}
	if old := e.Amo(a, cache.AmoCAS, 10, 1); old != 42 || e.Load(a) != 42 {
		t.Fatal("failed CAS wrote")
	}
	before := e.Insts
	e.Compute(100)
	if e.Insts != before+100 {
		t.Fatalf("compute counted %d insts, want 100", e.Insts-before)
	}
}

func TestNativeAmoInstCount(t *testing.T) {
	e := NewNativeEnv(mem.New())
	a := e.Alloc(1)
	before := e.Insts
	e.Load(a)
	e.Store(a, 1)
	e.Amo(a, cache.AmoOr, 0, 0)
	if e.Insts != before+3 {
		t.Fatalf("memory ops counted %d insts, want 3", e.Insts-before)
	}
}

func TestSimEnvRoundTrip(t *testing.T) {
	cfg, err := machine.Lookup("bT/HCC-DTS-gwb")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumBig, cfg.NumTiny = 1, 3
	cfg.Rows, cfg.Cols = 1, 4
	cfg.NumBanks = 2
	m := machine.New(cfg)
	a := m.Mem.AllocWords(1)
	var loaded, stored uint64
	var now sim.Time
	m.Spawn(2, func(core *cpu.Core) {
		e := NewSimEnv(core, m.Mem)
		e.Compute(10)
		e.Store(a, 5)
		e.Amo(a, cache.AmoAdd, 2, 0)
		loaded = e.Load(a)
		b := e.Alloc(8)
		e.Store(b, 1)
		stored = e.Load(b)
		now = core.Now()
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if loaded != 7 || stored != 1 {
		t.Fatalf("loaded = %d, %d; want 7, 1", loaded, stored)
	}
	if now == 0 {
		t.Fatal("no simulated time elapsed")
	}
}
