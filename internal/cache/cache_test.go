package cache

import (
	"testing"

	"bigtiny/internal/dram"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// newTestSystem builds a small 2-row mesh (cores on row 0, L2 banks on
// row 1) with one L1 per protocol in protos and 2 L2 banks of 64 sets.
func newTestSystem(t testing.TB, protos []Protocol, l1Bytes int) *System {
	t.Helper()
	return newTestSystemSets(t, protos, l1Bytes, 64)
}

// newTestSystemSets is newTestSystem with l2Sets sets per L2 bank.
func newTestSystemSets(t testing.TB, protos []Protocol, l1Bytes, l2Sets int) *System {
	t.Helper()
	cols := len(protos)
	if cols < 2 {
		cols = 2
	}
	mesh := noc.NewMesh(2, cols)
	backing := mem.New()
	numBanks := 2
	cfg := Config{
		NumCores:      len(protos),
		L2SetsPerBank: l2Sets,
		L2Ways:        8,
	}
	for c := range protos {
		cfg.CoreNode = append(cfg.CoreNode, mesh.Node(0, c%cols))
	}
	for b := 0; b < numBanks; b++ {
		cfg.BankNode = append(cfg.BankNode, mesh.Node(1, b))
		cfg.MCs = append(cfg.MCs, dram.NewController(dram.DefaultConfig()))
	}
	sys := NewSystem(cfg, mesh, backing)
	for c, p := range protos {
		NewL1(sys, c, p, l1Bytes, 2)
	}
	return sys
}

func TestReadYourWriteAllProtocols(t *testing.T) {
	for _, p := range []Protocol{MESI, DeNovo, GPUWT, GPUWB} {
		sys := newTestSystem(t, []Protocol{p}, 4096)
		l1 := sys.L1(0)
		a := sys.Mem().Alloc(64)
		done := l1.Store(0, a, 1234)
		v, _ := l1.Load(done, a)
		if v != 1234 {
			t.Errorf("%v: read-your-write = %d, want 1234", p, v)
		}
	}
}

func TestMESIInvalidationOnRemoteWrite(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI, MESI}, 4096)
	a := sys.Mem().Alloc(64)
	c0, c1 := sys.L1(0), sys.L1(1)

	// Both cores read: line shared.
	_, t0 := c0.Load(0, a)
	_, t1 := c1.Load(t0, a)
	// Core 0 writes: core 1's copy must be invalidated by hardware.
	t2 := c0.Store(t1, a, 99)
	// Core 1 reads again WITHOUT any software invalidate and must see 99.
	v, _ := c1.Load(t2, a)
	if v != 99 {
		t.Fatalf("MESI remote read after write = %d, want 99 (writer-initiated invalidation failed)", v)
	}
	if sys.L2Stats.InvSent == 0 {
		t.Fatal("no invalidations were sent")
	}
}

func TestMESIDirtyMigration(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI, MESI}, 4096)
	a := sys.Mem().Alloc(64)
	c0, c1 := sys.L1(0), sys.L1(1)
	t0 := c0.Store(0, a, 7) // c0 has M
	v, t1 := c1.Load(t0, a) // directory recalls from owner
	if v != 7 {
		t.Fatalf("migrated read = %d, want 7", v)
	}
	if sys.L2Stats.Recalls == 0 {
		t.Fatal("expected an owner recall")
	}
	// Both should now be sharers; a store by c1 upgrades and invalidates c0.
	t2 := c1.Store(t1, a, 8)
	v, _ = c0.Load(t2, a)
	if v != 8 {
		t.Fatalf("read after migration = %d, want 8", v)
	}
}

func TestMESIEGrantSilentUpgrade(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI, MESI}, 4096)
	a := sys.Mem().Alloc(64)
	c0 := sys.L1(0)
	_, t0 := c0.Load(0, a) // sole reader: E state
	// Store should hit locally with no further L2 traffic.
	before := sys.Mesh().Traffic.TotalBytes()
	t1 := c0.Store(t0, a, 5)
	if got := sys.Mesh().Traffic.TotalBytes(); got != before {
		t.Fatalf("silent E->M upgrade generated traffic: %d bytes", got-before)
	}
	if t1 != t0+1 {
		t.Fatalf("E->M upgrade took %d cycles, want 1", t1-t0)
	}
}

func TestGPUWBStalenessIsReal(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWB, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	w, r := sys.L1(0), sys.L1(1)

	// Reader caches the old value.
	v, t0 := r.Load(0, a)
	if v != 0 {
		t.Fatalf("initial = %d", v)
	}
	// Writer stores without flushing.
	t1 := w.Store(t0, a, 42)
	// Reader still sees the stale 0 — even after invalidating! The dirty
	// word is sitting in the writer's cache.
	t2 := r.Invalidate(t1)
	v, t3 := r.Load(t2, a)
	if v != 0 {
		t.Fatalf("read before flush = %d, want stale 0", v)
	}
	// After the writer flushes and the reader invalidates, the new value
	// becomes visible.
	t4 := w.Flush(t3)
	t5 := r.Invalidate(t4)
	v, _ = r.Load(t5, a)
	if v != 42 {
		t.Fatalf("read after flush+invalidate = %d, want 42", v)
	}
}

func TestGPUWBInvalidateWithoutFlushIsNotEnough(t *testing.T) {
	// Reader-initiated invalidation alone cannot make another core's
	// unflushed writes visible; this is why the HCC runtime needs both.
	sys := newTestSystem(t, []Protocol{GPUWB, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	w, r := sys.L1(0), sys.L1(1)
	t0 := w.Store(0, a, 9)
	t1 := r.Invalidate(t0)
	v, _ := r.Load(t1, a)
	if v == 9 {
		t.Fatal("unflushed write became visible; GPU-WB model is broken")
	}
}

func TestGPUWTWriteThroughVisible(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWT, GPUWT}, 4096)
	a := sys.Mem().Alloc(64)
	w, r := sys.L1(0), sys.L1(1)
	// Reader caches old value.
	_, t0 := r.Load(0, a)
	t1 := w.Store(t0, a, 5) // write-through, no flush needed
	// Reader must self-invalidate (reader-initiated), then sees it.
	v, _ := r.Load(t1, a)
	if v != 0 {
		t.Fatalf("stale read = %d, want 0 before invalidate", v)
	}
	t2 := r.Invalidate(t1)
	v, _ = r.Load(t2, a)
	if v != 5 {
		t.Fatalf("read after invalidate = %d, want 5", v)
	}
}

func TestGPUWTNoWriteAllocate(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWT}, 4096)
	a := sys.Mem().Alloc(64)
	l1 := sys.L1(0)
	t0 := l1.Store(0, a, 1)
	// The store must not have installed the line: the next load misses.
	before := l1.Stats.LoadMisses
	_, _ = l1.Load(t0+100, a)
	if l1.Stats.LoadMisses != before+1 {
		t.Fatal("GPU-WT store allocated a line (should be no-allocate)")
	}
}

func TestDeNovoOwnershipPropagatesWithoutFlush(t *testing.T) {
	sys := newTestSystem(t, []Protocol{DeNovo, DeNovo}, 4096)
	a := sys.Mem().Alloc(64)
	w, r := sys.L1(0), sys.L1(1)
	t0 := w.Store(0, a, 77) // registers the word; data stays in w's L1
	t1 := w.Flush(t0)       // no-op for DeNovo
	if t1 != t0 {
		t.Fatal("DeNovo flush should be free")
	}
	// Reader invalidates (reader-initiated) then loads: the L2 recalls
	// the word from the owner.
	t2 := r.Invalidate(t1)
	v, _ := r.Load(t2, a)
	if v != 77 {
		t.Fatalf("DeNovo read = %d, want 77 (ownership recall failed)", v)
	}
	if sys.L2Stats.Recalls == 0 {
		t.Fatal("expected a word recall")
	}
}

func TestDeNovoInvalidateKeepsOwnedWords(t *testing.T) {
	sys := newTestSystem(t, []Protocol{DeNovo}, 4096)
	a := sys.Mem().Alloc(64)
	l1 := sys.L1(0)
	t0 := l1.Store(0, a, 3)
	t1 := l1.Invalidate(t0)
	// Owned word must still hit.
	misses := l1.Stats.LoadMisses
	v, _ := l1.Load(t1, a)
	if v != 3 {
		t.Fatalf("owned word after invalidate = %d, want 3", v)
	}
	if l1.Stats.LoadMisses != misses {
		t.Fatal("owned word missed after invalidate")
	}
}

func TestMixedHCCBigSeesTinyFlushWithoutSoftwareInvalidate(t *testing.T) {
	// The Spandex-style integration: a GPU-WB tiny core's flush must
	// invalidate stale copies in the MESI (big-core) domain, because big
	// cores rely purely on hardware coherence.
	sys := newTestSystem(t, []Protocol{MESI, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	big, tiny := sys.L1(0), sys.L1(1)

	v, t0 := big.Load(0, a) // big caches the line
	if v != 0 {
		t.Fatal("bad initial")
	}
	t1 := tiny.Store(t0, a, 11)
	t2 := tiny.Flush(t1)
	// Big core reads again with NO software invalidate: hardware must
	// have invalidated its copy when the flush writeback arrived.
	v, _ = big.Load(t2, a)
	if v != 11 {
		t.Fatalf("big core read = %d, want 11 (HCC write integration broken)", v)
	}
}

func TestMixedHCCTinyReadsBigDirtyData(t *testing.T) {
	// A tiny core's read must recall dirty data from a big core's MESI
	// L1 through the shared L2.
	sys := newTestSystem(t, []Protocol{MESI, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	big, tiny := sys.L1(0), sys.L1(1)
	t0 := big.Store(0, a, 21) // big holds M
	v, _ := tiny.Load(t0, a)
	if v != 21 {
		t.Fatalf("tiny read of big's dirty line = %d, want 21", v)
	}
}

func TestAmoAtomicityAcrossCores(t *testing.T) {
	for _, protos := range [][]Protocol{
		{MESI, MESI}, {DeNovo, DeNovo}, {GPUWT, GPUWT}, {GPUWB, GPUWB},
		{MESI, GPUWB},
	} {
		sys := newTestSystem(t, protos, 4096)
		a := sys.Mem().Alloc(64)
		t0, t1 := sim.Time(0), sim.Time(0)
		for i := 0; i < 50; i++ {
			_, t0 = sys.L1(0).Amo(t0, a, AmoAdd, 1, 0)
			_, t1 = sys.L1(1).Amo(t1, a, AmoAdd, 1, 0)
		}
		if got := sys.DebugReadWord(a); got != 100 {
			t.Errorf("%v+%v: counter = %d, want 100", protos[0], protos[1], got)
		}
	}
}

func TestAmoCAS(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	l1 := sys.L1(0)
	old, t0 := l1.Amo(0, a, AmoCAS, 0, 10)
	if old != 0 {
		t.Fatalf("CAS old = %d, want 0", old)
	}
	old, _ = l1.Amo(t0, a, AmoCAS, 5, 99) // expected 5, actual 10: fails
	if old != 10 {
		t.Fatalf("failed CAS old = %d, want 10", old)
	}
	if got := sys.DebugReadWord(a); got != 10 {
		t.Fatalf("after failed CAS value = %d, want 10", got)
	}
}

func TestAmoOnDirtyGPUWBWord(t *testing.T) {
	// A GPU-WB core's AMO must see its own unflushed store.
	sys := newTestSystem(t, []Protocol{GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	l1 := sys.L1(0)
	t0 := l1.Store(0, a, 40)
	old, _ := l1.Amo(t0, a, AmoAdd, 2, 0)
	if old != 40 {
		t.Fatalf("AMO old = %d, want 40 (dirty word not carried to L2)", old)
	}
	if got := sys.DebugReadWord(a); got != 42 {
		t.Fatalf("AMO result = %d, want 42", got)
	}
}

func TestL1EvictionWritebackSurvives(t *testing.T) {
	for _, p := range []Protocol{MESI, DeNovo, GPUWB} {
		// 4KB 2-way = 32 sets; lines 32 sets apart collide.
		sys := newTestSystem(t, []Protocol{p}, 4096)
		l1 := sys.L1(0)
		base := sys.Mem().Alloc(64 * 200)
		tt := sim.Time(0)
		// Write 3 lines mapping to the same set: one must be evicted.
		setStride := mem.Addr(32 * 64)
		for i := 0; i < 3; i++ {
			tt = l1.Store(tt, base+mem.Addr(i)*setStride, uint64(1000+i))
		}
		for i := 0; i < 3; i++ {
			if got := sys.DebugReadWord(base + mem.Addr(i)*setStride); got != uint64(1000+i) {
				t.Errorf("%v: evicted line value = %d, want %d", p, got, 1000+i)
			}
		}
	}
}

func TestL2InclusionRecallsOnEviction(t *testing.T) {
	// Shrink the L2 to force evictions: 2 sets x 2 ways per bank.
	mesh := noc.NewMesh(2, 2)
	backing := mem.New()
	cfg := Config{
		NumCores:      1,
		CoreNode:      []noc.NodeID{mesh.Node(0, 0)},
		BankNode:      []noc.NodeID{mesh.Node(1, 0), mesh.Node(1, 1)},
		L2SetsPerBank: 2,
		L2Ways:        2,
		MCs: []*dram.Controller{
			dram.NewController(dram.DefaultConfig()),
			dram.NewController(dram.DefaultConfig()),
		},
	}
	sys := NewSystem(cfg, mesh, backing)
	l1 := NewL1(sys, 0, MESI, 64*1024, 2)
	// Touch many distinct lines so L2 sets overflow and recall the L1's
	// (huge) cached copies.
	tt := sim.Time(0)
	base := backing.Alloc(64 * 64)
	for i := 0; i < 64; i++ {
		tt = l1.Store(tt, base+mem.Addr(i*64), uint64(i))
	}
	if sys.L2Stats.Evictions == 0 {
		t.Fatal("expected L2 evictions")
	}
	for i := 0; i < 64; i++ {
		if got := sys.DebugReadWord(base + mem.Addr(i*64)); got != uint64(i) {
			t.Fatalf("line %d lost through L2 eviction: %d", i, got)
		}
	}
}

func TestMissSlowerThanHit(t *testing.T) {
	for _, p := range []Protocol{MESI, DeNovo, GPUWT, GPUWB} {
		sys := newTestSystem(t, []Protocol{p}, 4096)
		l1 := sys.L1(0)
		a := sys.Mem().Alloc(64)
		_, t0 := l1.Load(0, a)
		missLat := t0
		v, t1 := l1.Load(t0, a)
		_ = v
		hitLat := t1 - t0
		if hitLat != 1 {
			t.Errorf("%v: hit latency = %d, want 1", p, hitLat)
		}
		if missLat < 20 {
			t.Errorf("%v: cold miss latency = %d, suspiciously fast", p, missLat)
		}
	}
}

func TestHitRateAccounting(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI}, 4096)
	l1 := sys.L1(0)
	a := sys.Mem().Alloc(64)
	_, t0 := l1.Load(0, a)  // miss
	_, t1 := l1.Load(t0, a) // hit
	l1.Store(t1, a, 1)      // hit (E->M)
	if l1.Stats.Loads != 2 || l1.Stats.LoadMisses != 1 || l1.Stats.Stores != 1 || l1.Stats.StoreMisses != 0 {
		t.Fatalf("stats = %+v", l1.Stats)
	}
	if hr := l1.Stats.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", hr)
	}
}

func TestFlushCountsLines(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWB}, 4096)
	l1 := sys.L1(0)
	base := sys.Mem().Alloc(64 * 4)
	tt := sim.Time(0)
	for i := 0; i < 4; i++ {
		tt = l1.Store(tt, base+mem.Addr(i*64), uint64(i))
	}
	done := l1.Flush(tt)
	if l1.Stats.FlushLines != 4 {
		t.Fatalf("FlushLines = %d, want 4", l1.Stats.FlushLines)
	}
	if done <= tt {
		t.Fatal("flush with dirty lines should take time")
	}
	// Second flush: nothing dirty.
	done2 := l1.Flush(done)
	if l1.Stats.FlushLines != 4 || done2 != done {
		t.Fatal("empty flush should be free")
	}
}

func TestInvalidateCountsLines(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWT}, 4096)
	l1 := sys.L1(0)
	base := sys.Mem().Alloc(64 * 3)
	tt := sim.Time(0)
	for i := 0; i < 3; i++ {
		_, tt = l1.Load(tt, base+mem.Addr(i*64))
	}
	l1.Invalidate(tt)
	if l1.Stats.InvLines != 3 {
		t.Fatalf("InvLines = %d, want 3", l1.Stats.InvLines)
	}
}

func TestWriteThroughTrafficCategories(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWT}, 4096)
	l1 := sys.L1(0)
	a := sys.Mem().Alloc(64)
	l1.Store(0, a, 1)
	if sys.Mesh().Traffic.Bytes[noc.WBReq] == 0 {
		t.Fatal("write-through produced no wb_req traffic")
	}
	l1.Amo(100, a, AmoAdd, 1, 0)
	if sys.Mesh().Traffic.Bytes[noc.SyncReq] == 0 || sys.Mesh().Traffic.Bytes[noc.SyncResp] == 0 {
		t.Fatal("L2 AMO produced no sync traffic")
	}
}

func TestGPUWTStoreReturnsGlobalVisibility(t *testing.T) {
	// A write-through store's completion time is when it lands at the
	// L2 (the core-level store buffer decides whether to stall on it).
	sys := newTestSystem(t, []Protocol{GPUWT}, 4096)
	l1 := sys.L1(0)
	a := sys.Mem().Alloc(64)
	done := l1.Store(0, a, 1)
	if done < 10 {
		t.Fatalf("write-through visible after %d cycles; should include the L2 trip", done)
	}
	if got := sys.DebugReadWord(a); got != 1 {
		t.Fatal("write-through not applied")
	}
}

func TestDebugReadWordFindsDirtyCopies(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	b := sys.Mem().Alloc(64)
	sys.L1(0).Store(0, a, 1) // MESI M copy
	sys.L1(1).Store(0, b, 2) // GPU-WB dirty word
	if sys.DebugReadWord(a) != 1 || sys.DebugReadWord(b) != 2 {
		t.Fatal("DebugReadWord missed dirty copies")
	}
}
