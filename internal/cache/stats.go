package cache

import "math/bits"

// L1Stats counts the events at one private L1 cache that the paper's
// evaluation reports: hit rates (Fig. 6), invalidation and flush line
// counts (Table IV), and AMO counts.
type L1Stats struct {
	Loads       uint64
	LoadMisses  uint64
	Stores      uint64
	StoreMisses uint64
	Amos        uint64

	// InvOps counts cache_invalidate instructions executed;
	// InvLines counts cache lines actually invalidated by them.
	InvOps   uint64
	InvLines uint64
	// FlushOps counts cache_flush instructions executed;
	// FlushLines counts dirty cache lines actually written back by them.
	FlushOps   uint64
	FlushLines uint64

	// EvictWBLines counts dirty lines written back due to capacity
	// evictions (not flushes).
	EvictWBLines uint64
}

// Accesses returns total load+store demand accesses.
func (s *L1Stats) Accesses() uint64 { return s.Loads + s.Stores }

// Hits returns demand accesses that hit.
func (s *L1Stats) Hits() uint64 {
	return s.Accesses() - s.LoadMisses - s.StoreMisses
}

// HitRate returns the L1 data hit rate in [0,1] (Fig. 6 metric).
func (s *L1Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 1
	}
	return float64(s.Hits()) / float64(a)
}

// Add accumulates other into s.
func (s *L1Stats) Add(other *L1Stats) {
	s.Loads += other.Loads
	s.LoadMisses += other.LoadMisses
	s.Stores += other.Stores
	s.StoreMisses += other.StoreMisses
	s.Amos += other.Amos
	s.InvOps += other.InvOps
	s.InvLines += other.InvLines
	s.FlushOps += other.FlushOps
	s.FlushLines += other.FlushLines
	s.EvictWBLines += other.EvictWBLines
}

// L2Stats counts events at the shared L2.
type L2Stats struct {
	Hits      uint64
	Misses    uint64
	Recalls   uint64 // ownership recalls (MESI owner or DeNovo words)
	InvSent   uint64 // invalidations sent to MESI sharers
	Evictions uint64
	AmoOps    uint64 // AMOs performed at the L2 (no-ownership protocols)
}

// bitset is a fixed-capacity set of core IDs used for the directory's
// precise MESI sharer list. Its words are a slice of its L2 set's slab
// (System.way).
type bitset struct{ w []uint64 }

func (b *bitset) set(i int)      { b.w[i/64] |= 1 << (i % 64) }
func (b *bitset) clear(i int)    { b.w[i/64] &^= 1 << (i % 64) }
func (b *bitset) has(i int) bool { return b.w[i/64]&(1<<(i%64)) != 0 }

func (b *bitset) empty() bool {
	for _, w := range b.w {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b *bitset) clearAll() {
	for i := range b.w {
		b.w[i] = 0
	}
}

// forEach calls f for every set bit.
func (b *bitset) forEach(f func(i int)) {
	for wi, w := range b.w {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			f(i)
			w &= w - 1
		}
	}
}

func popcount8(x uint8) int { return bits.OnesCount8(x) }
