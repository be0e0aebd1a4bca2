package cache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"bigtiny/internal/dram"
	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// opLines is the number of distinct lines an op stream touches: more
// than an L1 (4 lines) or the L2 (8 lines) of opSystem holds.
const opLines = 12

// Op kinds of a stream: Load, Store, one per AmoOp, Invalidate, Flush.
const (
	opLoad = iota
	opStore
	opAmo        // opAmo+k is AmoOp(k)
	opInvalidate = opAmo + 5
	opFlush      = opInvalidate + 1
	numOpKinds   = opFlush + 1
)

// l1Op is one operation of a stream: core issues kind on word (line,
// word) of the stream's region, with operands x and y.
type l1Op struct {
	kind, core, line, word int
	x, y                   uint64
}

// opSystem builds a system small enough that every coherence path runs
// within a few thousand ops: 256-byte 2-way L1s (4 lines each) and an
// L2 of 2 banks x 2 sets x 2 ways. Every L1 shares faults, which may
// be nil.
func opSystem(protos []Protocol, faults *fault.Injector) (*System, mem.Addr) {
	mesh := noc.NewMesh(2, len(protos))
	cfg := Config{NumCores: len(protos), L2SetsPerBank: 2, L2Ways: 2}
	for c := range protos {
		cfg.CoreNode = append(cfg.CoreNode, mesh.Node(0, c))
	}
	for b := 0; b < 2; b++ {
		cfg.BankNode = append(cfg.BankNode, mesh.Node(1, b))
		cfg.MCs = append(cfg.MCs, dram.NewController(dram.DefaultConfig()))
	}
	sys := NewSystem(cfg, mesh, mem.New())
	for c, p := range protos {
		NewL1(sys, c, p, 256, 2).Faults = faults
	}
	return sys, sys.Mem().Alloc(opLines * mem.LineSize)
}

// do issues op at its core's clock, advances that clock to the op's
// completion time and returns the value the op read (0 for a Store,
// Invalidate or Flush).
func (op l1Op) do(sys *System, base mem.Addr, now []sim.Time) (v uint64, done sim.Time) {
	l1 := sys.L1(op.core)
	a := base + mem.Addr(op.line*mem.LineSize+op.word*8)
	t := now[op.core]
	switch {
	case op.kind == opLoad:
		v, done = l1.Load(t, a)
	case op.kind == opStore:
		done = l1.Store(t, a, op.x)
	case op.kind < opInvalidate:
		v, done = l1.Amo(t, a, AmoOp(op.kind-opAmo), op.x, op.y)
	case op.kind == opInvalidate:
		done = l1.Invalidate(t)
	default:
		done = l1.Flush(t)
	}
	now[op.core] = done
	return v, done
}

// randomOp draws an op: mostly loads and stores, operands in [0, 4) so
// that CAS succeeds often enough, and words 0-3 so that DeNovo cores
// contend for the same words.
func randomOp(r *sim.Rand, cores int) l1Op {
	op := l1Op{core: r.Intn(cores), line: r.Intn(opLines), word: r.Intn(4),
		x: uint64(r.Intn(4)), y: uint64(r.Intn(4))}
	switch k := r.Intn(16); {
	case k < 6:
		op.kind = opLoad
	case k < 11:
		op.kind = opStore
	case k < 14:
		op.kind = opAmo + r.Intn(5)
	case k < 15:
		op.kind = opInvalidate
	default:
		op.kind = opFlush
	}
	return op
}

// coherenceEvents counts the protocol transitions a stream exercised,
// read from the L2 directory around each access (the directory is the
// one view of them that does not depend on how an L1 stores its state).
type coherenceEvents struct {
	eGrants, upgrades, mesiRecalls, wordRecalls uint64
}

// fingerprintStream runs n random ops from seed on a fresh system and
// folds every op's value and completion time, then the final L1, L2
// and mesh counters and the freshest value of every word, into one
// FNV-64 value.
func fingerprintStream(protos []Protocol, faults *fault.Injector, seed uint64, n int) (uint64, coherenceEvents, *System) {
	sys, base := opSystem(protos, faults)
	r := sim.NewRand(seed)
	now := make([]sim.Time, len(protos))
	h := fnv.New64a()
	var buf [8]byte
	fold := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	var ev coherenceEvents
	for i := 0; i < n; i++ {
		op := randomOp(r, len(protos))
		l1 := sys.L1(op.core)
		la := mem.LineAddr(base + mem.Addr(op.line*mem.LineSize))
		preOwner, preSharer, preWordOwner := -1, false, false
		if line, ok := sys.peek(sys.bankFor(la), la); ok {
			var words [mem.WordsPerLine]int32
			preOwner, words = l2Owners(sys, line)
			preSharer = line.sharers.has(op.core)
			for _, o := range words {
				preWordOwner = preWordOwner || (o >= 0 && int(o) != op.core)
			}
		}
		pre, recalls := l1.Stats, sys.L2Stats.Recalls
		v, done := op.do(sys, base, now)
		fold(uint64(op.kind), uint64(op.core), v, uint64(done))
		if op.kind >= opInvalidate {
			continue
		}
		postOwner := -1
		if line, ok := sys.peek(sys.bankFor(la), la); ok {
			postOwner, _ = l2Owners(sys, line)
		}
		mesi := l1.Protocol() == MESI
		recalled := sys.L2Stats.Recalls > recalls
		switch {
		case mesi && op.kind == opLoad && l1.Stats.LoadMisses > pre.LoadMisses && postOwner == op.core:
			ev.eGrants++
		case mesi && op.kind != opLoad && l1.Stats.StoreMisses == pre.StoreMisses &&
			preSharer && preOwner != op.core && postOwner == op.core:
			ev.upgrades++
		}
		if recalled && preOwner >= 0 && preOwner != op.core {
			ev.mesiRecalls++
		}
		if recalled && preWordOwner {
			ev.wordRecalls++
		}
	}
	for c := range protos {
		fmt.Fprintf(h, "%+v", sys.L1(c).Stats)
	}
	fmt.Fprintf(h, "%+v %+v", sys.L2Stats, sys.Mesh().Traffic)
	for w := 0; w < opLines*mem.WordsPerLine; w++ {
		fold(sys.DebugReadWord(base + mem.Addr(w*8)))
	}
	return h.Sum64(), ev, sys
}

// TestL1OpStreamFingerprint pins the exact behaviour of the L1s and the
// L2 on random op streams over mixed-protocol systems: every op's value
// and completion time and every final counter. Any change to a
// protocol transition, a latency or a message moves a fingerprint. A
// refactor of the cache model must leave all of them unchanged.
func TestL1OpStreamFingerprint(t *testing.T) {
	systems := []struct {
		name   string
		protos []Protocol
		evict  int // fault.Scenario.EvictEvery; 0 = no injector
		seed   uint64
		want   uint64
	}{
		{"mesi-dnv-gwt-gwb", []Protocol{MESI, DeNovo, GPUWT, GPUWB}, 0, 1, 0x0ab5a77a37cc4cbf},
		{"mesi-mesi-dnv-gwb+evict", []Protocol{MESI, MESI, DeNovo, GPUWB}, 7, 2, 0x7024f2bd38b226db},
		{"mesi-mesi-dnv-dnv", []Protocol{MESI, MESI, DeNovo, DeNovo}, 0, 3, 0x7937914cd01b571e},
	}
	var ev coherenceEvents
	var l1WBs, l2Evictions, faults uint64
	for _, s := range systems {
		var inj *fault.Injector
		if s.evict > 0 {
			inj = fault.NewInjector(fault.Scenario{Name: "pressure", EvictEvery: s.evict}, s.seed)
		}
		got, e, sys := fingerprintStream(s.protos, inj, s.seed, 6000)
		if got != s.want {
			t.Errorf("%s: fingerprint %#x, want %#x", s.name, got, s.want)
		}
		ev.eGrants += e.eGrants
		ev.upgrades += e.upgrades
		ev.mesiRecalls += e.mesiRecalls
		ev.wordRecalls += e.wordRecalls
		for c := range s.protos {
			l1WBs += sys.L1(c).Stats.EvictWBLines
		}
		l2Evictions += sys.L2Stats.Evictions
		faults += inj.Total()
	}
	t.Logf("events %+v, L1 writebacks %d, L2 evictions %d, forced evictions %d",
		ev, l1WBs, l2Evictions, faults)
	for name, n := range map[string]uint64{
		"E grants": ev.eGrants, "S->M upgrades": ev.upgrades,
		"MESI recalls": ev.mesiRecalls, "DeNovo word recalls": ev.wordRecalls,
		"L1 writebacks": l1WBs, "L2 evictions": l2Evictions, "forced evictions": faults,
	} {
		if n == 0 {
			t.Errorf("the streams never exercised %s", name)
		}
	}
}
