package cache

import (
	"reflect"
	"testing"
	"unsafe"

	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// l2SetsInUse counts the L2 sets a fill has materialised, and the
// chunks holding them.
func l2SetsInUse(sys *System) (sets, chunks int) {
	for _, b := range sys.banks {
		for _, ch := range b.chunks {
			if ch == nil {
				continue
			}
			chunks++
			for _, set := range ch {
				if set.ways != nil {
					sets++
				}
			}
		}
	}
	return sets, chunks
}

// l1SetsInUse counts the sets of one L1 a fill has materialised.
func l1SetsInUse(l *L1) int {
	n := 0
	for _, set := range l.sets {
		if set != nil {
			n++
		}
	}
	return n
}

// TestSetsMaterialiseOnFirstTouch: a fresh system holds no set storage
// at all, and loads, stores, AMOs and flushes from all four protocols
// over N distinct lines materialise at most N L2 sets, in at most N
// chunks, and N sets per L1.
func TestSetsMaterialiseOnFirstTouch(t *testing.T) {
	protos := []Protocol{MESI, DeNovo, GPUWT, GPUWB}
	sys := newTestSystem(t, protos, 4096)
	if n, chunks := l2SetsInUse(sys); n != 0 || chunks != 0 {
		t.Fatalf("fresh system holds %d L2 sets in %d chunks, want none", n, chunks)
	}
	for c, p := range protos {
		if n := l1SetsInUse(sys.L1(c)); n != 0 {
			t.Fatalf("fresh %v L1 holds %d sets, want 0", p, n)
		}
	}
	const lines = 10
	base := sys.Mem().Alloc(lines * mem.LineSize)
	tt := sim.Time(0)
	for i := 0; i < lines; i++ {
		a := base + mem.Addr(i*mem.LineSize)
		for c := range protos {
			l1 := sys.L1(c)
			_, tt = l1.Load(tt, a)
			tt = l1.Store(tt, a+8, uint64(i))
			_, tt = l1.Amo(tt, a+16, AmoAdd, 1, 0)
		}
	}
	for c := range protos {
		tt = sys.L1(c).Flush(tt)
	}
	if n, chunks := l2SetsInUse(sys); n == 0 || n > lines || chunks == 0 || chunks > n {
		t.Fatalf("%d distinct lines materialised %d L2 sets in %d chunks, want 1..%d sets in 1..sets chunks",
			lines, n, chunks, lines)
	}
	for c, p := range protos {
		if n := l1SetsInUse(sys.L1(c)); n == 0 || n > lines {
			t.Fatalf("%v L1: %d distinct lines materialised %d sets, want 1..%d", p, lines, n, lines)
		}
	}
}

// TestL2ChunksMaterialiseOnFirstTouch: on banks of 1024 sets, a fill
// allocates the one chunk of 64 sets around its set, and a lookup that
// does not fill, in a chunk no fill has touched, allocates nothing.
func TestL2ChunksMaterialiseOnFirstTouch(t *testing.T) {
	sys := newTestSystemSets(t, []Protocol{MESI, GPUWB}, 4096, 1024)
	for _, b := range sys.banks {
		if len(b.chunks) != 1024/l2ChunkSets {
			t.Fatalf("bank %d has %d chunk slots, want %d", b.id, len(b.chunks), 1024/l2ChunkSets)
		}
	}
	// Lines one chunk apart in one bank: 2 banks x 64 sets of 64-byte lines.
	const stride = 2 * l2ChunkSets * mem.LineSize
	const lines = 3
	base := sys.Mem().Alloc((lines + 1) * stride)
	tt := sim.Time(0)
	for i := 0; i < lines; i++ {
		_, tt = sys.L1(i%2).Load(tt, base+mem.Addr(i*stride))
	}
	if n, chunks := l2SetsInUse(sys); n != lines || chunks != lines {
		t.Fatalf("%d lines a chunk apart materialised %d sets in %d chunks, want %d in %d",
			lines, n, chunks, lines, lines)
	}
	if _, ok := sys.peek(sys.bankFor(base), base+lines*stride); ok {
		t.Fatal("peek hit a line no fill brought in")
	}
	sys.DebugReadWord(base + lines*stride)
	sys.l2EvictNotify(tt, 0, base+lines*stride)
	if n, chunks := l2SetsInUse(sys); n != lines || chunks != lines {
		t.Fatalf("lookups without a fill grew the table to %d sets in %d chunks, want %d in %d",
			n, chunks, lines, lines)
	}
}

// TestDebugReadUntouched: reading an address no cache has touched
// returns DRAM's word and allocates no set.
func TestDebugReadUntouched(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI, GPUWB}, 4096)
	a := sys.Mem().Alloc(64)
	sys.Mem().WriteWord(a+8, 4321)
	if got := sys.DebugReadWord(a + 8); got != 4321 {
		t.Fatalf("DebugReadWord = %d, want DRAM's 4321", got)
	}
	if n, chunks := l2SetsInUse(sys); n != 0 || chunks != 0 {
		t.Fatalf("DebugReadWord materialised %d L2 sets in %d chunks, want none", n, chunks)
	}
}

// TestUntouchedSetsAreEmpty: cache_invalidate, cache_flush, forced
// evictions under the cache-pressure scenario and a directory evict
// notice all see an untouched set as empty: no line counted, no fault
// recorded, no set allocated, no panic.
func TestUntouchedSetsAreEmpty(t *testing.T) {
	protos := []Protocol{MESI, DeNovo, GPUWT, GPUWB}
	sys := newTestSystem(t, protos, 4096)
	sc, err := fault.Lookup("cache-pressure")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(sc, 1)
	base := sys.Mem().Alloc(2 * sc.EvictEvery * mem.LineSize)
	for c, p := range protos {
		l1 := sys.L1(c)
		l1.Faults = inj
		l1.Invalidate(0)
		l1.Flush(0)
		// Two eviction ticks per core, each on an untouched set.
		for i := 0; i < 2*sc.EvictEvery; i++ {
			l1.pressureFault(0, base+mem.Addr(i*mem.LineSize))
		}
		sys.l2EvictNotify(0, c, base)
		if want := (L1Stats{InvOps: 1, FlushOps: 1}); l1.Stats != want {
			t.Errorf("%v L1 stats %+v, want %+v", p, l1.Stats, want)
		}
		if n := l1SetsInUse(l1); n != 0 {
			t.Errorf("%v L1 materialised %d sets, want 0", p, n)
		}
	}
	if sys.L2Stats != (L2Stats{}) {
		t.Errorf("L2 stats %+v, want zero", sys.L2Stats)
	}
	if n, chunks := l2SetsInUse(sys); n != 0 || chunks != 0 {
		t.Errorf("materialised %d L2 sets in %d chunks, want none", n, chunks)
	}
	if n := inj.Total(); n != 0 {
		t.Errorf("%d forced evictions recorded on untouched sets, want 0", n)
	}

	// The ticks above were real: once the set holds a line, the next
	// tick evicts it.
	l1 := sys.L1(0)
	tt := l1.Store(0, base, 1)
	for i := 0; i < sc.EvictEvery; i++ {
		l1.pressureFault(tt, base)
	}
	if n := inj.Total(); n != 1 {
		t.Fatalf("%d forced evictions on a filled set, want 1", n)
	}
}

// TestMESIWideSharers: on 256 cores a sharer list is four words of its
// set's slab. Cores 3 and 200 share one line, cores 64 and 255 another
// line of the same set; a write by core 100 to the first invalidates
// exactly its two sharers and leaves the neighbouring way's list alone.
func TestMESIWideSharers(t *testing.T) {
	protos := make([]Protocol, 256)
	for c := range protos {
		protos[c] = MESI
	}
	sys := newTestSystem(t, protos, 4096)
	// One bank and set apart: 2 banks x 64 sets of 64-byte lines.
	const stride = 2 * 64 * mem.LineSize
	a := sys.Mem().Alloc(stride + mem.LineSize)
	b := a + stride
	tt := sim.Time(0)
	for _, c := range []int{3, 200} {
		_, tt = sys.L1(c).Load(tt, a)
	}
	for _, c := range []int{64, 255} {
		_, tt = sys.L1(c).Load(tt, b)
	}
	la, okA := sys.peek(sys.bankFor(a), a)
	lb, okB := sys.peek(sys.bankFor(b), b)
	if !okA || !okB || sys.bankFor(a) != sys.bankFor(b) {
		t.Fatal("lines a and b are not both in one bank's L2")
	}
	if len(la.sharers.w) != 4 {
		t.Fatalf("sharer list is %d words, want 4 for 256 cores", len(la.sharers.w))
	}
	sharers := func(l l2Ref) []int {
		var cs []int
		l.sharers.forEach(func(c int) { cs = append(cs, c) })
		return cs
	}
	if got := sharers(la); len(got) != 2 || got[0] != 3 || got[1] != 200 {
		t.Fatalf("line a sharers %v, want [3 200]", got)
	}
	if got := sharers(lb); len(got) != 2 || got[0] != 64 || got[1] != 255 {
		t.Fatalf("line b sharers %v, want [64 255]", got)
	}

	tt = sys.L1(100).Store(tt, a, 7)
	if sys.L2Stats.InvSent != 2 {
		t.Fatalf("write to a sent %d invalidations, want 2", sys.L2Stats.InvSent)
	}
	for _, c := range []int{3, 200} {
		if sys.L1(c).find(a) != nil {
			t.Fatalf("core %d still holds a after core 100's write", c)
		}
	}
	if owner, _ := l2Owners(sys, la); owner != 100 || !la.sharers.empty() {
		t.Fatalf("line a owner %d sharers %v, want owner 100 and no sharers", owner, sharers(la))
	}
	if got := sharers(lb); len(got) != 2 || got[0] != 64 || got[1] != 255 {
		t.Fatalf("line b sharers %v after the write to a, want [64 255]", got)
	}
	if v, _ := sys.L1(200).Load(tt, a); v != 7 {
		t.Fatalf("core 200 reads %d, want 7", v)
	}
}

// TestLineLayout pins the layout of L1 and L2 lines. No field may hold
// a pointer, a slice, a map, a string or an interface, so the garbage
// collector never scans a set however many a run touches, and an L2
// line stays within 120 bytes. An L2 line that carried a slice header
// once cost about 6 % of a ref-size cell's host time.
func TestLineLayout(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[i]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: a set of these lines would hold a pointer", path, ty.Kind())
		}
	}
	walk("l1Line", reflect.TypeOf(l1Line{}))
	walk("l2Line", reflect.TypeOf(l2Line{}))
	if n := unsafe.Sizeof(l2Line{}); n > 120 {
		t.Errorf("l2Line is %d bytes, want at most 120", n)
	}
}
