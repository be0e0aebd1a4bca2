package cache

import (
	"testing"

	"bigtiny/internal/dram"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// tinyL2System builds a system whose L2 is small enough to force
// evictions (2 sets x 2 ways per bank, 2 banks = 8 lines total).
func tinyL2System(t *testing.T, protos []Protocol) *System {
	t.Helper()
	mesh := noc.NewMesh(2, 2)
	cfg := Config{
		NumCores:      len(protos),
		L2SetsPerBank: 2,
		L2Ways:        2,
	}
	for c := range protos {
		cfg.CoreNode = append(cfg.CoreNode, mesh.Node(0, c%2))
	}
	for b := 0; b < 2; b++ {
		cfg.BankNode = append(cfg.BankNode, mesh.Node(1, b))
		cfg.MCs = append(cfg.MCs, dram.NewController(dram.DefaultConfig()))
	}
	sys := NewSystem(cfg, mesh, mem.New())
	for c, p := range protos {
		NewL1(sys, c, p, 64*1024, 2) // big L1s so L2 evicts first
	}
	return sys
}

// TestL2EvictionWithGPUWBDirtyData: the L2 does not track GPU-WB dirty
// copies, so it can evict a line while an L1 still holds dirty words.
// The later flush must refill the line (possibly from DRAM) and merge
// without losing either the dirty words or other cores' data.
func TestL2EvictionWithGPUWBDirtyData(t *testing.T) {
	sys := tinyL2System(t, []Protocol{GPUWB})
	l1 := sys.L1(0)
	a := sys.Mem().Alloc(64)
	sys.Mem().WriteWord(a+8, 777) // pre-existing neighbour word in DRAM

	tt := l1.Store(0, a, 42) // dirty word 0 in L1 only
	// Thrash the tiny L2 so the line (and everything else) is evicted.
	probe := sys.Mem().Alloc(64 * 64)
	for i := 0; i < 64; i++ {
		_, tt = l1.Load(tt, probe+mem.Addr(i*64))
	}
	if sys.L2Stats.Evictions == 0 {
		t.Fatal("L2 never evicted; test setup broken")
	}
	// Flush the dirty word; it must merge with DRAM's word 1.
	tt = l1.Flush(tt)
	if got := sys.DebugReadWord(a); got != 42 {
		t.Fatalf("flushed word = %d, want 42", got)
	}
	if got := sys.DebugReadWord(a + 8); got != 777 {
		t.Fatalf("neighbour word = %d, want 777 (merge clobbered it)", got)
	}
}

// TestL2EvictionRecallsDeNovoOwnership: the L2 is inclusive of DeNovo
// word registrations; evicting a line must recall the owned words so no
// write is lost.
func TestL2EvictionRecallsDeNovoOwnership(t *testing.T) {
	sys := tinyL2System(t, []Protocol{DeNovo})
	l1 := sys.L1(0)
	a := sys.Mem().Alloc(64)
	tt := l1.Store(0, a, 55) // registers word 0
	probe := sys.Mem().Alloc(64 * 64)
	for i := 0; i < 64; i++ {
		_, tt = l1.Load(tt, probe+mem.Addr(i*64))
	}
	if sys.L2Stats.Evictions == 0 {
		t.Fatal("L2 never evicted")
	}
	// The registered word must have been recalled (or still owned) —
	// either way its value is preserved architecturally.
	if got := sys.DebugReadWord(a); got != 55 {
		t.Fatalf("DeNovo-owned word after L2 eviction = %d, want 55", got)
	}
	// And a second core-side read must observe it.
	v, _ := l1.Load(tt+100, a)
	if v != 55 {
		t.Fatalf("reload = %d, want 55", v)
	}
}

// TestL2EvictionRecallsMESIOwnerAcrossSets exercises inclusion for MESI
// with interleaved dirty lines across both banks.
func TestL2EvictionRecallsMESIInclusion(t *testing.T) {
	sys := tinyL2System(t, []Protocol{MESI})
	l1 := sys.L1(0)
	base := sys.Mem().Alloc(64 * 32)
	tt := sim.Time(0)
	for i := 0; i < 32; i++ {
		tt = l1.Store(tt, base+mem.Addr(i*64), uint64(1000+i))
	}
	if sys.L2Stats.Evictions == 0 {
		t.Fatal("L2 never evicted")
	}
	for i := 0; i < 32; i++ {
		if got := sys.DebugReadWord(base + mem.Addr(i*64)); got != uint64(1000+i) {
			t.Fatalf("line %d = %d, want %d", i, got, 1000+i)
		}
	}
	// Inclusion invariant: no L1 line may be valid (non-I) unless its
	// line is present in the L2.
	for si := range l1.sets {
		for wi := range l1.sets[si] {
			ln := &l1.sets[si][wi]
			if !ln.valid {
				continue
			}
			if _, ok := sys.peek(sys.bankFor(ln.tag), ln.tag); !ok {
				t.Fatalf("L1 holds %#x but L2 evicted it (inclusion broken)", uint64(ln.tag))
			}
		}
	}
}

// TestGPUWTVictimNoWriteback: GPU-WT never holds dirty data, so L1
// evictions must produce zero writeback traffic.
func TestGPUWTVictimNoWriteback(t *testing.T) {
	sys := newTestSystem(t, []Protocol{GPUWT}, 4096)
	l1 := sys.L1(0)
	base := sys.Mem().Alloc(64 * 256)
	tt := sim.Time(0)
	for i := 0; i < 256; i++ { // thrash the 4KB L1
		_, tt = l1.Load(tt, base+mem.Addr(i*64))
	}
	if l1.Stats.EvictWBLines != 0 {
		t.Fatalf("GPU-WT evicted %d dirty lines; must be 0", l1.Stats.EvictWBLines)
	}
}
