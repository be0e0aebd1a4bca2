package wsrt

import (
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// nativeCtx is the context RT.Analyze runs a body in, over a fresh
// memory, and its env.
func nativeCtx() (*Ctx, *nativeEnv) {
	rt := NewNative(mem.New())
	e := &nativeEnv{mem: rt.Mem()}
	return &Ctx{rt: rt, env: e}, e
}

func TestNativeEnvBasics(t *testing.T) {
	c, e := nativeCtx()
	a := c.Alloc(4)
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
	before := e.insts
	e.Compute(100)
	if e.insts != before+100 {
		t.Fatalf("compute counted %d insts, want 100", e.insts-before)
	}
}

func TestNativeAmoInstCount(t *testing.T) {
	c, e := nativeCtx()
	a := c.Alloc(1)
	if e.insts != 0 {
		t.Fatalf("native Alloc counted %d insts, want 0", e.insts)
	}
	before := e.insts
	e.Load(a)
	e.Store(a, 1)
	e.Amo(a, cache.AmoOr, 0, 0)
	if e.insts != before+3 {
		t.Fatalf("memory ops counted %d insts, want 3", e.insts-before)
	}
}

// TestCoreCtxRoundTrip: a simulated context's ops, Alloc included, reach
// the machine through its core.
func TestCoreCtxRoundTrip(t *testing.T) {
	cfg, err := machine.Lookup("bT/HCC-DTS-gwb")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumBig, cfg.NumTiny = 1, 3
	cfg.Rows, cfg.Cols = 1, 4
	cfg.NumBanks = 2
	m := machine.New(cfg)
	rt := New(m, HCC)
	a := m.Mem.AllocWords(1)
	var loaded, stored uint64
	var now sim.Time
	m.Spawn(2, func(core *cpu.Core) {
		c := handCtx(rt, core)
		c.Compute(10)
		c.Store(a, 5)
		c.Amo(a, cache.AmoAdd, 2, 0)
		loaded = c.Load(a)
		b := c.Alloc(8)
		c.Store(b, 1)
		stored = c.Load(b)
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

// pairProgram runs Load2 and Copy on e over the four words at base,
// which hold 3, 4, 5, 6, and returns what Load2 read.
func pairProgram(e env, base mem.Addr) (uint64, uint64) {
	e.Copy(base+16, base)   // words: 3, 4, 3, 6
	e.Copy(base+8, base+24) // 3, 6, 3, 6
	e.Store(base, 9)        // 9, 6, 3, 6
	x, y := e.Load2(base, base+16)
	e.Copy(base+24, base+16) // 9, 6, 3, 3
	return x, y
}

// TestEnvPairParity: the native env and a simulated core agree on
// Load2's values and on the memory Copy leaves, and the native env
// counts each form as the two memory ops it stands for.
func TestEnvPairParity(t *testing.T) {
	words := []uint64{3, 4, 5, 6}
	init := func(m *mem.Memory) mem.Addr {
		base := m.AllocWords(len(words))
		for i, v := range words {
			m.WriteWord(base+mem.Addr(8*i), v)
		}
		return base
	}
	native := &nativeEnv{mem: mem.New()}
	nbase := init(native.mem)
	nx, ny := pairProgram(native, nbase)
	if native.insts != 2+2+1+2+2 {
		t.Fatalf("native counted %d insts, want 9", native.insts)
	}

	cfg, err := machine.Lookup("bT/HCC-DTS-gwb")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cfg)
	sbase := init(m.Mem)
	var sx, sy uint64
	m.Spawn(0, func(core *cpu.Core) { sx, sy = pairProgram(core, sbase) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if sx != nx || sy != ny || nx != 9 || ny != 3 {
		t.Fatalf("Load2 read %d, %d simulated and %d, %d native; want 9, 3", sx, sy, nx, ny)
	}
	for i := range words {
		a := mem.Addr(8 * i)
		if s, n := m.Cache.DebugReadWord(sbase+a), native.mem.ReadWord(nbase+a); s != n {
			t.Fatalf("word %d: %d simulated, %d native", i, s, n)
		}
	}
}
