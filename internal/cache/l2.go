package cache

import (
	"bigtiny/internal/dram"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// Message sizes in bytes. Every message carries an 8-byte header;
// payloads are cache lines (64B) or words (8B).
const (
	hdrBytes      = 8
	reqBytes      = hdrBytes      // dataless request
	ackBytes      = hdrBytes      // dataless response
	lineRespBytes = hdrBytes + 64 // full-line data response
	wordRespBytes = hdrBytes + 8  // single-word data response
	lineWBBytes   = hdrBytes + 64 // full-line writeback
	amoReqBytes   = hdrBytes + 16 // address + up to two operands
	amoRespBytes  = hdrBytes + 8  // old value
)

// wbBytes returns the size of a word-masked writeback message.
func wbBytes(mask uint8) int { return hdrBytes + 8*popcount8(mask) }

// Config parameterizes the cache hierarchy.
type Config struct {
	NumCores int
	// CoreNode maps core id -> mesh node.
	CoreNode []noc.NodeID
	// BankNode maps L2 bank id -> mesh node.
	BankNode []noc.NodeID
	// L2SetsPerBank and L2Ways size each bank (512KB, 8-way by default).
	L2SetsPerBank int
	L2Ways        int
	// BankLat is the occupancy of one bank access in cycles.
	BankLat sim.Time
	// AmoLat is the extra occupancy of an at-L2 atomic.
	AmoLat sim.Time
	// MCs holds one DRAM controller per bank.
	MCs []*dram.Controller
}

// System is the complete cache hierarchy: per-core L1s, the shared
// banked L2 with its embedded directory, and the DRAM backing store.
type System struct {
	cfg  Config
	mesh *noc.Mesh
	mem  *mem.Memory

	banks []*bank
	l1s   []*L1
	tick  uint64

	// sharerWords is the length of one sharer list: a word per 64 cores.
	sharerWords int

	// recallScratch groups recalled words by owning core (one word mask
	// per core id), reused across recallWords calls so the hot recall
	// path allocates nothing. Entries are always zero between calls.
	recallScratch []uint8

	L2Stats L2Stats
}

type bank struct {
	id   int
	node noc.NodeID
	res  sim.Resource
	// sets[i] is empty until a fill first touches set i (see lookup): a
	// run pays for the sets it uses, not for the bank's whole geometry.
	sets []l2Set
	mc   *dram.Controller
}

// l2Set is one set of a bank: its ways, and one slab holding every
// way's sharer list. Neither holds a pointer, so the garbage collector
// never scans a set, however many a run touches.
type l2Set struct {
	ways    []l2Line
	sharers []uint64
}

// l2Ref is one way of an L2 set together with its sharer list, the
// way's words of the set's slab.
type l2Ref struct {
	*l2Line
	sharers bitset
}

type l2Line struct {
	tag   mem.Addr // line base address; valid when allocated
	valid bool
	dirty bool // relative to DRAM
	data  [mem.WordsPerLine]uint64

	// Directory state for the MESI domain: the exclusive owner (a core
	// granted E or M), if any, and a precise sharer list (l2Ref.sharers).
	owner int // core id, or -1

	// DeNovo word registrations: owning core per word, or -1.
	wordOwner [mem.WordsPerLine]int32

	lastUse uint64
}

// NewSystem builds the hierarchy. L1s are attached afterwards with NewL1.
func NewSystem(cfg Config, m *noc.Mesh, backing *mem.Memory) *System {
	if len(cfg.BankNode) == 0 || len(cfg.MCs) != len(cfg.BankNode) {
		panic("cache: need one MC per bank")
	}
	if cfg.BankLat == 0 {
		cfg.BankLat = 4
	}
	if cfg.AmoLat == 0 {
		cfg.AmoLat = 2
	}
	s := &System{
		cfg: cfg, mesh: m, mem: backing,
		sharerWords:   (cfg.NumCores + 63) / 64,
		recallScratch: make([]uint8, cfg.NumCores),
	}
	for b := range cfg.BankNode {
		s.banks = append(s.banks, &bank{
			id:   b,
			node: cfg.BankNode[b],
			sets: make([]l2Set, cfg.L2SetsPerBank),
			mc:   cfg.MCs[b],
		})
	}
	s.l1s = make([]*L1, cfg.NumCores)
	return s
}

// Mem returns the DRAM backing store.
func (s *System) Mem() *mem.Memory { return s.mem }

// Mesh returns the on-chip network.
func (s *System) Mesh() *noc.Mesh { return s.mesh }

// L1 returns core's private L1.
func (s *System) L1(core int) *L1 { return s.l1s[core] }

// bankFor returns the bank holding la (line-interleaved across banks).
func (s *System) bankFor(la mem.Addr) *bank {
	return s.banks[int(la/mem.LineSize)%len(s.banks)]
}

func (b *bank) setIndex(la mem.Addr, numBanks, numSets int) int {
	return int(la/mem.LineSize/mem.Addr(numBanks)) % numSets
}

// newSet allocates one L2 set: its ways, all invalid, and the slab of
// their sharer lists. A way's directory fields are reset by the fill
// that validates it, so they need no initial value.
func (s *System) newSet() l2Set {
	return l2Set{
		ways:    make([]l2Line, s.cfg.L2Ways),
		sharers: make([]uint64, s.cfg.L2Ways*s.sharerWords),
	}
}

// way returns way i of set with its sharer list.
func (s *System) way(set *l2Set, i int) l2Ref {
	n := s.sharerWords
	return l2Ref{&set.ways[i], bitset{w: set.sharers[i*n : (i+1)*n : (i+1)*n]}}
}

// lookup finds or allocates the L2 line for la at bank b, filling from
// DRAM on a miss (and evicting an existing line if the set is full).
// ready is when the line's data is available at the bank.
func (s *System) lookup(now sim.Time, b *bank, la mem.Addr) (line l2Ref, ready sim.Time) {
	set := &b.sets[b.setIndex(la, len(s.banks), s.cfg.L2SetsPerBank)]
	if set.ways == nil {
		*set = s.newSet()
	}
	s.tick++
	var best *l2Line
	vi := 0
	for i := range set.ways {
		l := &set.ways[i]
		if l.valid && l.tag == la {
			s.L2Stats.Hits++
			l.lastUse = s.tick
			return s.way(set, i), now
		}
		switch {
		case best == nil:
			best, vi = l, i
		case best.valid && !l.valid:
			best, vi = l, i // prefer an empty way
		case best.valid && l.valid && l.lastUse < best.lastUse:
			best, vi = l, i // LRU among occupied ways
		}
	}
	victim := s.way(set, vi)
	s.L2Stats.Misses++
	// Evict the victim if occupied; the L2 is inclusive of MESI L1s and
	// of DeNovo word registrations, so it must recall them first.
	t := now
	if victim.valid {
		s.L2Stats.Evictions++
		t = s.recallAll(t, b, victim)
		t = s.invalidateSharers(t, b, victim, -1)
		// Inclusive eviction: MESI L1s lose the line entirely.
		if victim.owner >= 0 {
			t, _, _ = s.recallOwner(t, b, victim, true)
		}
		if victim.dirty {
			s.mesh.Traffic.Bytes[noc.DRAMReq] += lineWBBytes
			s.mesh.Traffic.Messages[noc.DRAMReq]++
			b.mc.Access(t, true) // occupancy only; write completes in background
			s.mem.WriteLineMasked(victim.tag, &victim.data, 0xFF)
		}
		victim.valid = false
	}
	// Fill from DRAM.
	s.mesh.Traffic.Bytes[noc.DRAMReq] += reqBytes
	s.mesh.Traffic.Messages[noc.DRAMReq]++
	t = b.mc.Access(t, false)
	s.mesh.Traffic.Bytes[noc.DRAMResp] += lineRespBytes
	s.mesh.Traffic.Messages[noc.DRAMResp]++
	victim.tag = la
	victim.valid = true
	victim.dirty = false
	victim.owner = -1
	victim.sharers.clearAll()
	for i := range victim.wordOwner {
		victim.wordOwner[i] = -1
	}
	s.mem.ReadLine(la, &victim.data)
	victim.lastUse = s.tick
	return victim, t
}

// recallOwner pulls the line back from its exclusive MESI owner. If
// invalidate is true the owner drops to I, otherwise it keeps an S copy.
// Returns the time the owner's response reaches the bank, plus the
// owner's node and whether dirty data was supplied, so callers can
// model owner->requester forwarding (the standard 3-hop directory
// optimization) instead of bouncing data through the bank.
func (s *System) recallOwner(t sim.Time, b *bank, l l2Ref, invalidate bool) (sim.Time, noc.NodeID, bool) {
	if l.owner < 0 {
		return t, b.node, false
	}
	owner := l.owner
	s.L2Stats.Recalls++
	at := s.mesh.Send(t, b.node, s.cfg.CoreNode[owner], reqBytes, noc.CohReq)
	data, wasDirty := s.l1s[owner].recallMESI(l.tag, invalidate)
	respBytes := ackBytes
	if wasDirty {
		respBytes = lineRespBytes
		l.data = data
		l.dirty = true
	}
	done := s.mesh.Send(at, s.cfg.CoreNode[owner], b.node, respBytes, noc.CohResp)
	if invalidate {
		l.owner = -1
	} else {
		// Downgrade: owner becomes a plain sharer.
		l.sharers.set(owner)
		l.owner = -1
	}
	return done, s.cfg.CoreNode[owner], wasDirty
}

// invalidateSharers sends invalidations to every MESI sharer except
// `except` and waits for all acks (writer-initiated invalidation).
func (s *System) invalidateSharers(t sim.Time, b *bank, l l2Ref, except int) sim.Time {
	done := t
	l.sharers.forEach(func(core int) {
		if core == except {
			return
		}
		s.L2Stats.InvSent++
		at := s.mesh.Send(t, b.node, s.cfg.CoreNode[core], reqBytes, noc.CohReq)
		s.l1s[core].invalidateMESILine(l.tag)
		ack := s.mesh.Send(at, s.cfg.CoreNode[core], b.node, ackBytes, noc.CohResp)
		if ack > done {
			done = ack
		}
	})
	keep := except >= 0 && l.sharers.has(except)
	l.sharers.clearAll()
	if keep {
		l.sharers.set(except)
	}
	return done
}

// recallAll pulls back every DeNovo-registered word in the line,
// transferring ownership to the L2. One round trip per distinct owner.
func (s *System) recallAll(t sim.Time, b *bank, l l2Ref) sim.Time {
	return s.recallWords(t, b, l, 0xFF, -1)
}

// recallWords recalls the words in mask that are registered to cores
// other than except.
func (s *System) recallWords(t sim.Time, b *bank, l l2Ref, mask uint8, except int) sim.Time {
	// Group words by owner in the reusable scratch table (cleared again
	// as the owner loop consumes it).
	byOwner := s.recallScratch
	any := false
	for w := 0; w < mem.WordsPerLine; w++ {
		if mask&(1<<w) == 0 {
			continue
		}
		o := int(l.wordOwner[w])
		if o >= 0 && o != except {
			byOwner[o] |= 1 << w
			any = true
		}
	}
	if !any {
		return t
	}
	done := t
	for owner := 0; owner < s.cfg.NumCores; owner++ {
		wm := byOwner[owner]
		if wm == 0 {
			continue
		}
		byOwner[owner] = 0
		s.L2Stats.Recalls++
		at := s.mesh.Send(t, b.node, s.cfg.CoreNode[owner], reqBytes, noc.CohReq)
		words := s.l1s[owner].recallWords(l.tag, wm)
		resp := s.mesh.Send(at, s.cfg.CoreNode[owner], b.node, wbBytes(wm), noc.CohResp)
		for w := 0; w < mem.WordsPerLine; w++ {
			if wm&(1<<w) != 0 {
				l.data[w] = words[w]
				l.wordOwner[w] = -1
			}
		}
		l.dirty = true
		if resp > done {
			done = resp
		}
	}
	return done
}

// acquireForWrite makes the L2 copy of the line writable by `core`:
// recalls the MESI owner, invalidates MESI sharers, and recalls DeNovo
// word registrations for the written words. This is the Spandex-style
// integration point: a write arriving from any protocol is
// writer-initiated with respect to the hardware-coherent (MESI) domain
// and reader-initiated with respect to the software-centric domain.
func (s *System) acquireForWrite(t sim.Time, b *bank, l l2Ref, core int, mask uint8) sim.Time {
	t, _, _ = s.recallOwner(t, b, l, true)
	t = s.invalidateSharers(t, b, l, core)
	t = s.recallWords(t, b, l, mask, core)
	return t
}
