package energy

import (
	"testing"

	"bigtiny/internal/cpu"
	"bigtiny/internal/stats"
	"bigtiny/internal/uli"
)

func sampleRun() *stats.Run {
	r := &stats.Run{}
	r.TinyBreakdown[cpu.ClassOther] = 1000
	r.BigBreakdown[cpu.ClassOther] = 100
	r.L1Tiny.Loads = 500
	r.L1Tiny.Stores = 100
	r.L1Tiny.Amos = 50
	r.L2.Hits = 200
	r.L2.Misses = 20
	r.DRAMReads = 20
	r.ByteHops = 10000
	r.Insts = 1100
	return r
}

func TestEstimateComponents(t *testing.T) {
	m := DefaultModel()
	r := sampleRun()
	wantPJ := 1000*m.TinyCyclePJ + 100*m.BigCyclePJ +
		650*m.L1AccessPJ + 220*m.L2AccessPJ + 20*m.DRAMLinePJ +
		10000*m.NoCByteHopPJ
	if got := m.Estimate(r); got != wantPJ/1e6 {
		t.Fatalf("estimate = %v uJ, want %v", got, wantPJ/1e6)
	}
}

func TestULIEnergyCounted(t *testing.T) {
	m := DefaultModel()
	r := sampleRun()
	base := m.Estimate(r)
	r.ULI = &uli.Stats{Reqs: 100, Acks: 60, Nacks: 40}
	withULI := m.Estimate(r)
	if withULI <= base {
		t.Fatal("ULI messages not charged")
	}
	want := 200 * m.ULIMsgPJ / 1e6
	if diff := withULI - base; diff < want*0.999 || diff > want*1.001 {
		t.Fatalf("ULI energy = %v, want ~%v", diff, want)
	}
}

func TestBigCoreCostlierThanTiny(t *testing.T) {
	m := DefaultModel()
	tiny := &stats.Run{}
	tiny.TinyBreakdown[cpu.ClassOther] = 1000
	big := &stats.Run{}
	big.BigBreakdown[cpu.ClassOther] = 1000
	if m.Estimate(big) <= m.Estimate(tiny) {
		t.Fatal("big-core cycle should cost more than tiny-core cycle")
	}
}
