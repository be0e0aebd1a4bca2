// Package energy estimates energy from event counts, standing in for
// the paper's gem5-based energy evaluation. The absolute scale is a
// proxy; what matters (and what the paper claims in §I/§VI) is the
// *relative* energy of configurations: big.TINY/HCC-DTS should land
// near big.TINY/MESI, and big-core-only systems should be less
// efficient on parallel work.
package energy

import (
	"bigtiny/internal/stats"
)

// Model holds per-event energy weights in picojoules. Defaults are
// order-of-magnitude figures for a ~1GHz 28nm-class design: an
// out-of-order issue slot costs ~10x an in-order one; DRAM line
// accesses dominate; on-chip transfer costs scale with byte-hops.
type Model struct {
	TinyCyclePJ  float64 // per tiny-core active cycle
	BigCyclePJ   float64 // per big-core active cycle
	L1AccessPJ   float64 // per L1 load/store/AMO
	L2AccessPJ   float64 // per L2 access (hit or miss handling)
	DRAMLinePJ   float64 // per DRAM line transfer
	NoCByteHopPJ float64 // per payload byte per hop
	ULIMsgPJ     float64 // per ULI message
}

// DefaultModel returns the documented default weights.
func DefaultModel() Model {
	return Model{
		TinyCyclePJ:  6,
		BigCyclePJ:   60,
		L1AccessPJ:   10,
		L2AccessPJ:   50,
		DRAMLinePJ:   2000,
		NoCByteHopPJ: 1,
		ULIMsgPJ:     20,
	}
}

// Estimate returns the energy proxy for a run in microjoules.
func (m Model) Estimate(r *stats.Run) float64 {
	var pj float64
	var tinyCycles, bigCycles uint64
	for _, v := range r.TinyBreakdown {
		tinyCycles += v
	}
	for _, v := range r.BigBreakdown {
		bigCycles += v
	}
	pj += float64(tinyCycles) * m.TinyCyclePJ
	pj += float64(bigCycles) * m.BigCyclePJ
	l1 := r.L1Tiny.Accesses() + r.L1Tiny.Amos + r.L1Big.Accesses() + r.L1Big.Amos
	pj += float64(l1) * m.L1AccessPJ
	pj += float64(r.L2.Hits+r.L2.Misses) * m.L2AccessPJ
	pj += float64(r.DRAMReads+r.DRAMWrites) * m.DRAMLinePJ
	pj += float64(r.ByteHops) * m.NoCByteHopPJ
	if r.ULI != nil {
		pj += float64(r.ULI.Reqs+r.ULI.Acks+r.ULI.Nacks) * m.ULIMsgPJ
	}
	return pj / 1e6
}
