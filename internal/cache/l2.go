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
	// spare holds the sets earlier runs used (see Reset), for newSet.
	spare []l2Set

	L2Stats L2Stats
}

type bank struct {
	id   int
	node noc.NodeID
	res  sim.Resource
	// chunks[i] holds sets i*l2ChunkSets onwards. A chunk is nil, and a
	// set in it has no ways, until a fill first touches the set (see
	// lookup): a run pays for the sets it uses, not for the bank's whole
	// geometry.
	chunks []*l2Chunk
	mc     *dram.Controller
}

// l2ChunkSets is the number of consecutive sets allocated together.
const l2ChunkSets = 64

// l2Chunk is l2ChunkSets consecutive sets of a bank.
type l2Chunk [l2ChunkSets]l2Set

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

	// owner is the directory's one owner record: the core that owns each
	// word, or noOwner. A DeNovo core registers single words; a MESI
	// owner (a core granted E or M) is named by all eight. MESI sharers
	// are in a precise list beside the line (l2Ref.sharers).
	owner [mem.WordsPerLine]int32

	lastUse uint64
}

// noOwner is the owner record of a word no L1 owns.
const noOwner = -1

// ownedBy returns the owner record of a line whose every word core owns.
func ownedBy(core int) (r [mem.WordsPerLine]int32) {
	for w := range r {
		r[w] = int32(core)
	}
	return r
}

// disown clears core's ownership of the words in mask.
func (l l2Ref) disown(core int, mask uint8) {
	for w, o := range l.owner {
		if mask&(1<<w) != 0 && o == int32(core) {
			l.owner[w] = noOwner
		}
	}
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
		sharerWords: (cfg.NumCores + 63) / 64,
	}
	for b := range cfg.BankNode {
		s.banks = append(s.banks, &bank{
			id:     b,
			node:   cfg.BankNode[b],
			chunks: make([]*l2Chunk, (cfg.L2SetsPerBank+l2ChunkSets-1)/l2ChunkSets),
			mc:     cfg.MCs[b],
		})
	}
	s.l1s = make([]*L1, cfg.NumCores)
	s.Reset()
	return s
}

// Reset empties the hierarchy for a new run: every L1 and L2 line is
// invalid and every counter, bank port and LRU clock is at zero. The L2
// sets a run touched go back to untouched, and newSet hands their
// memory out again, cleared, so a reset costs what the last run
// touched, not what every run before it did.
func (s *System) Reset() {
	s.tick, s.L2Stats = 0, L2Stats{}
	for _, b := range s.banks {
		b.res = sim.Resource{}
		for _, ch := range b.chunks {
			if ch == nil {
				continue
			}
			for i := range ch {
				if ch[i].ways != nil {
					s.spare = append(s.spare, ch[i])
					ch[i] = l2Set{}
				}
			}
		}
	}
	for _, l := range s.l1s {
		if l != nil {
			l.reset()
		}
	}
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

// newSet returns one L2 set, a spare one cleared or a new one: its
// ways, all invalid, and the slab of their sharer lists. A way's
// directory fields are reset by the fill that validates it, so they
// need no initial value.
func (s *System) newSet() l2Set {
	if n := len(s.spare); n > 0 {
		set := s.spare[n-1]
		s.spare = s.spare[:n-1]
		clear(set.ways)
		clear(set.sharers)
		return set
	}
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
	si := b.setIndex(la, len(s.banks), s.cfg.L2SetsPerBank)
	ch := b.chunks[si/l2ChunkSets]
	if ch == nil {
		ch = new(l2Chunk)
		b.chunks[si/l2ChunkSets] = ch
	}
	set := &ch[si%l2ChunkSets]
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
	// of DeNovo word registrations, so it first recalls every owner and
	// invalidates every sharer, as a write by no core would.
	t := now
	if victim.valid {
		s.L2Stats.Evictions++
		t, _ = s.acquireForWrite(t, b, victim, -1, 0xFF)
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
	victim.owner = ownedBy(noOwner)
	victim.sharers.clearAll()
	s.mem.ReadLine(la, &victim.data)
	victim.lastUse = s.tick
	return victim, t
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

// recall takes back the owned words in mask, one round trip per owner
// in ascending core id. A DeNovo owner gives up just those words and
// keeps them clean. A MESI owner owns the whole line: it drops the
// line, or with keep is downgraded to a sharer. Each owner answers with
// the words it owned (the line from M, a bare ack from E). A writer
// never owns a word it asks for (its L1 would have hit), and a reader's
// own DeNovo words come back like anyone's, so no owner is excepted.
// recall returns when the last answer reaches the bank, and where the
// line's data leaves for the requester: an M owner's node (the 3-hop
// forward), or else the bank's.
func (s *System) recall(t sim.Time, b *bank, l l2Ref, mask uint8, keep bool) (sim.Time, noc.NodeID) {
	done, from := t, b.node
	for mask != 0 {
		// The lowest core owning a word in mask, and its words there.
		owner, wm := noOwner, uint8(0)
		for w, o := range l.owner {
			switch {
			case mask&(1<<w) == 0 || o < 0:
			case owner < 0 || int(o) < owner:
				owner, wm = int(o), 1<<w
			case int(o) == owner:
				wm |= 1 << w
			}
		}
		if owner < 0 {
			break
		}
		l1, node := s.l1s[owner], s.cfg.CoreNode[owner]
		mesi := l1.proto == MESI
		if mesi {
			wm = 0xFF
		}
		s.L2Stats.Recalls++
		at := s.mesh.Send(t, b.node, node, reqBytes, noc.CohReq)
		words, owned := l1.recall(l.tag, wm, mesi && !keep)
		resp := s.mesh.Send(at, node, b.node, wbBytes(owned), noc.CohResp)
		for w := range words {
			if owned&(1<<w) != 0 {
				l.data[w] = words[w]
				l.dirty = true
			}
		}
		l.disown(owner, wm)
		if mesi && keep {
			l.sharers.set(owner)
		}
		if mesi && owned != 0 {
			from = node
		}
		done = max(done, resp)
		mask &^= wm
	}
	return done, from
}

// acquireForWrite makes the L2 copy of the line writable by core: it
// recalls the owners of the words in mask, then invalidates the MESI
// sharers other than core. This is the Spandex-style integration point: a write
// arriving from any protocol is writer-initiated with respect to the
// hardware-coherent (MESI) domain and reader-initiated with respect to
// the software-centric domain. It returns where the line's data leaves
// for the requester (see recall).
func (s *System) acquireForWrite(t sim.Time, b *bank, l l2Ref, core int, mask uint8) (sim.Time, noc.NodeID) {
	t, from := s.recall(t, b, l, mask, false)
	return s.invalidateSharers(t, b, l, core), from
}
