package cache

import (
	"testing"
	"testing/quick"

	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// TestCoherenceDisciplineProperty checks the fundamental contract the
// work-stealing runtime depends on: for ANY interleaving of reads and
// writes from multiple cores, if every write by a software-centric core
// is followed by a cache_flush and every read is preceded by a
// cache_invalidate, then every read observes the most recent write
// (writes are serialized by the sequential test driver).
func TestCoherenceDisciplineProperty(t *testing.T) {
	protocols := [][]Protocol{
		{MESI, MESI, MESI},
		{DeNovo, DeNovo, DeNovo},
		{GPUWT, GPUWT, GPUWT},
		{GPUWB, GPUWB, GPUWB},
		{MESI, GPUWB, DeNovo}, // heterogeneous
		{MESI, GPUWT, GPUWB},
	}
	for _, protos := range protocols {
		protos := protos
		f := func(ops []uint32) bool {
			sys := newTestSystem(t, protos, 4096)
			nAddrs := 8
			base := sys.Mem().Alloc(64 * nAddrs)
			ref := make(map[mem.Addr]uint64)
			now := make([]sim.Time, len(protos))
			val := uint64(1)
			for _, op := range ops {
				core := int(op>>0) % len(protos)
				addr := base + mem.Addr(int(op>>4)%nAddrs)*64 + mem.Addr((int(op>>8)%8)*8)
				kind := (op >> 16) % 2
				l1 := sys.L1(core)
				switch kind {
				case 0: // write + flush
					now[core] = l1.Store(now[core], addr, val)
					now[core] = l1.Flush(now[core])
					ref[addr] = val
					val++
				case 1: // invalidate + read
					now[core] = l1.Invalidate(now[core])
					v, done := l1.Load(now[core], addr)
					now[core] = done
					if v != ref[addr] {
						t.Logf("%v: core %d read %d from %#x, want %d",
							protos, core, v, uint64(addr), ref[addr])
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("protocols %v: %v", protos, err)
		}
	}
}

// TestAmoLinearizableProperty checks that AMOs from any mix of cores
// and protocols are linearizable: a sequence of fetch-and-adds of known
// increments sums exactly, and every AMO observes a value consistent
// with all previously completed AMOs, regardless of interleaving and
// with NO flushes or invalidates at all (AMOs must be coherent on their
// own; the runtime's reference counts rely on this).
func TestAmoLinearizableProperty(t *testing.T) {
	protos := []Protocol{MESI, DeNovo, GPUWT, GPUWB}
	f := func(ops []uint16) bool {
		sys := newTestSystem(t, protos, 4096)
		a := sys.Mem().Alloc(64)
		now := make([]sim.Time, len(protos))
		sum := uint64(0)
		for _, op := range ops {
			core := int(op) % len(protos)
			inc := uint64(op>>2)%7 + 1
			old, done := sys.L1(core).Amo(now[core], a, AmoAdd, inc, 0)
			now[core] = done
			if old != sum {
				t.Logf("core %d AMO saw %d, want %d", core, old, sum)
				return false
			}
			sum += inc
		}
		return sys.DebugReadWord(a) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestMESISWMRProperty: after any sequence of loads and stores by MESI
// cores, at most one L1 holds the line in M/E, and if one does, no
// other L1 holds it at all (single-writer/multiple-reader invariant,
// paper §II-A).
func TestMESISWMRProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		protos := []Protocol{MESI, MESI, MESI, MESI}
		sys := newTestSystem(t, protos, 4096)
		nAddrs := 4
		base := sys.Mem().Alloc(64 * nAddrs)
		now := make([]sim.Time, len(protos))
		for _, op := range ops {
			core := int(op) % len(protos)
			addr := base + mem.Addr(int(op>>2)%nAddrs)*64
			l1 := sys.L1(core)
			if (op>>8)%2 == 0 {
				_, now[core] = l1.Load(now[core], addr)
			} else {
				now[core] = l1.Store(now[core], addr, uint64(op))
			}
			// Check SWMR for this line across all caches.
			owners, holders := 0, 0
			for c := range protos {
				ln := sys.L1(c).find(mem.LineAddr(addr))
				if ln == nil || !ln.valid || ln.state == stateI {
					continue
				}
				holders++
				if ln.state == stateM || ln.state == stateE {
					owners++
				}
			}
			if owners > 1 || (owners == 1 && holders > 1) {
				t.Logf("SWMR violated: %d owners, %d holders", owners, holders)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryPrecisionProperty: the directory's sharer list and owner
// field always agree with the actual L1 states (the paper's "precise
// sharer list", §V-A).
func TestDirectoryPrecisionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		protos := []Protocol{MESI, MESI, MESI}
		sys := newTestSystem(t, protos, 4096)
		nAddrs := 6
		base := sys.Mem().Alloc(64 * nAddrs)
		now := make([]sim.Time, len(protos))
		for _, op := range ops {
			core := int(op) % len(protos)
			addr := base + mem.Addr(int(op>>2)%nAddrs)*64
			if (op>>9)%2 == 0 {
				_, now[core] = sys.L1(core).Load(now[core], addr)
			} else {
				now[core] = sys.L1(core).Store(now[core], addr, uint64(op))
			}
		}
		// Verify every L2 line's directory state against L1 truth.
		for a := 0; a < nAddrs; a++ {
			la := mem.LineAddr(base + mem.Addr(a)*64)
			line, ok := sys.peek(sys.bankFor(la), la)
			if !ok {
				continue
			}
			for c := range protos {
				ln := sys.L1(c).find(la)
				has := ln != nil && ln.valid && ln.state != stateI
				tracked := line.sharers.has(c) || line.owner == c
				if has != tracked {
					t.Logf("directory imprecise for core %d line %#x: has=%v tracked=%v",
						c, uint64(la), has, tracked)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
