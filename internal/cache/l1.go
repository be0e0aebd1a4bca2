package cache

import (
	"fmt"

	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

type mesiState uint8

// MESI line states.
const (
	stateI mesiState = iota
	stateS
	stateE
	stateM
)

// l1Line is one way of a private L1 set. MESI uses state at line
// granularity; the software-centric protocols use the word masks
// (Table I "Write Granularity").
type l1Line struct {
	tag   mem.Addr
	valid bool
	state mesiState

	validMask uint8 // words with a (possibly clean) coherent-at-fetch copy
	dirtyMask uint8 // GPU-WB: locally dirty words awaiting flush/evict
	ownedMask uint8 // DeNovo: words this core has registered (owns)

	data    [mem.WordsPerLine]uint64
	lastUse uint64
}

// L1 is a private data cache attached to one core. Its behaviour is
// selected by the configured Protocol.
type L1 struct {
	sys   *System
	core  int
	node  noc.NodeID
	proto Protocol

	numSets int
	ways    int
	sets    [][]l1Line // a set is nil until allocSlot first fills it
	tick    uint64

	hitLat sim.Time

	// Faults, when non-nil, applies artificial capacity pressure by
	// periodically force-evicting the LRU line of the accessed set
	// (see internal/fault).
	Faults *fault.Injector

	// Oracle, when non-nil, shadows every load/store/AMO (set only by
	// oracle-enabled machines; must never hold a typed nil).
	Oracle Oracle

	Stats L1Stats
}

// NewL1 creates core's private L1 and registers it with the system.
// sizeBytes/ways give the geometry (4KB 2-way tiny, 64KB 2-way big).
func NewL1(sys *System, core int, proto Protocol, sizeBytes, ways int) *L1 {
	numSets := sizeBytes / mem.LineSize / ways
	if numSets < 1 {
		panic(fmt.Sprintf("cache: L1 of %dB/%d ways too small", sizeBytes, ways))
	}
	l := &L1{
		sys:     sys,
		core:    core,
		node:    sys.cfg.CoreNode[core],
		proto:   proto,
		numSets: numSets,
		ways:    ways,
		sets:    make([][]l1Line, numSets),
		hitLat:  1,
	}
	sys.l1s[core] = l
	return l
}

// Protocol returns the L1's coherence protocol.
func (l *L1) Protocol() Protocol { return l.proto }

func (l *L1) setIndex(la mem.Addr) int { return int(la/mem.LineSize) % l.numSets }

// setFor returns la's set, nil (no ways, nothing valid) if no fill has
// touched it yet.
func (l *L1) setFor(la mem.Addr) []l1Line { return l.sets[l.setIndex(la)] }

// find returns the line holding la, or nil.
func (l *L1) find(la mem.Addr) *l1Line {
	set := l.setFor(la)
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

// allocSlot makes room for la in its set, evicting the LRU victim if
// needed (with any protocol-required writeback or directory notice),
// and returns an empty installed line. The set itself is allocated on
// its first fill.
func (l *L1) allocSlot(now sim.Time, la mem.Addr) *l1Line {
	si := l.setIndex(la)
	set := l.sets[si]
	if set == nil {
		set = make([]l1Line, l.ways)
		l.sets[si] = set
	}
	var victim *l1Line
	for i := range set {
		ln := &set[i]
		switch {
		case victim == nil:
			victim = ln
		case victim.valid && !ln.valid:
			victim = ln
		case victim.valid && ln.valid && ln.lastUse < victim.lastUse:
			victim = ln
		}
	}
	if victim.valid {
		l.evict(now, victim)
	}
	l.tick++
	*victim = l1Line{tag: la, valid: true, lastUse: l.tick}
	return victim
}

// evict writes back or notifies as the protocol requires. Writebacks
// are posted: the core does not wait for them.
func (l *L1) evict(now sim.Time, ln *l1Line) {
	switch l.proto {
	case MESI:
		if ln.state == stateM {
			l.Stats.EvictWBLines++
			l.sys.l2WriteBack(now, l.core, ln.tag, 0xFF, &ln.data, true)
		} else if ln.state != stateI {
			l.sys.l2EvictNotify(now, l.core, ln.tag)
		}
	case DeNovo:
		if ln.ownedMask != 0 {
			l.Stats.EvictWBLines++
			l.sys.l2WriteBack(now, l.core, ln.tag, ln.ownedMask, &ln.data, true)
		}
	case GPUWT:
		// Write-through: nothing is ever dirty.
	case GPUWB:
		if ln.dirtyMask != 0 {
			l.Stats.EvictWBLines++
			l.sys.l2WriteBack(now, l.core, ln.tag, ln.dirtyMask, &ln.data, false)
		}
	}
	ln.valid = false
}

// touch updates LRU state.
func (l *L1) touch(ln *l1Line) {
	l.tick++
	ln.lastUse = l.tick
}

// pressureFault models artificial L1 capacity pressure: every Nth
// access (per the fault scenario) force-evicts the LRU valid line of
// the accessed set, through the normal evict path so all protocol
// writebacks and directory notices happen.
func (l *L1) pressureFault(now sim.Time, a mem.Addr) {
	if !l.Faults.CacheEvictTick() {
		return
	}
	set := l.setFor(a)
	var victim *l1Line
	for i := range set {
		ln := &set[i]
		if !ln.valid {
			continue
		}
		if victim == nil || ln.lastUse < victim.lastUse {
			victim = ln
		}
	}
	if victim != nil {
		l.evict(now, victim)
		l.Faults.Fired(fault.CacheEvict)
	}
}

// Load reads the word at a, returning its value and the completion
// time.
func (l *L1) Load(now sim.Time, a mem.Addr) (uint64, sim.Time) {
	l.Stats.Loads++
	l.pressureFault(now, a)
	var v uint64
	var done sim.Time
	switch l.proto {
	case MESI:
		v, done = l.loadMESI(now, a)
	case DeNovo:
		v, done = l.loadDeNovo(now, a)
	case GPUWT, GPUWB:
		v, done = l.loadGPU(now, a)
	default:
		panic("cache: unknown protocol")
	}
	if l.Oracle != nil {
		l.Oracle.OnLoad(l.core, uint64(a), v)
	}
	return v, done
}

// Store writes v to the word at a, returning the completion time.
func (l *L1) Store(now sim.Time, a mem.Addr, v uint64) sim.Time {
	l.Stats.Stores++
	l.pressureFault(now, a)
	var done sim.Time
	switch l.proto {
	case MESI:
		done = l.storeMESI(now, a, v)
	case DeNovo:
		done = l.storeDeNovo(now, a, v)
	case GPUWT:
		done = l.storeGPUWT(now, a, v)
	case GPUWB:
		done = l.storeGPUWB(now, a, v)
	default:
		panic("cache: unknown protocol")
	}
	if l.Oracle != nil {
		l.Oracle.OnStore(l.core, uint64(a), v)
	}
	return done
}

// Amo performs an atomic read-modify-write on the word at a and
// returns the old value. MESI and DeNovo perform it in the private
// cache after acquiring ownership; GPU-WT and GPU-WB perform it at the
// shared L2 (paper §II-A, §III-E).
func (l *L1) Amo(now sim.Time, a mem.Addr, op AmoOp, arg1, arg2 uint64) (uint64, sim.Time) {
	l.Stats.Amos++
	l.pressureFault(now, a)
	var old uint64
	var done sim.Time
	switch l.proto {
	case MESI:
		old, done = l.amoMESI(now, a, op, arg1, arg2)
	case DeNovo:
		old, done = l.amoDeNovo(now, a, op, arg1, arg2)
	case GPUWT, GPUWB:
		old, done = l.amoGPU(now, a, op, arg1, arg2)
	default:
		panic("cache: unknown protocol")
	}
	if l.Oracle != nil {
		newVal, wrote := ApplyAmo(op, old, arg1, arg2)
		l.Oracle.OnAmo(l.core, uint64(a), old, newVal, wrote)
	}
	return old, done
}

// Invalidate executes cache_invalidate: self-invalidate all clean data
// (no-op on MESI; paper Fig. 3 legend). It is a flash operation.
func (l *L1) Invalidate(now sim.Time) sim.Time {
	l.Stats.InvOps++
	const flashLat = 2
	switch l.proto {
	case MESI:
		return now // no-op
	case DeNovo, GPUWB:
		// Clean words are invalidated; owned (DeNovo) or dirty (GPU-WB)
		// words survive — they are this core's own writes.
		for si := range l.sets {
			for wi := range l.sets[si] {
				ln := &l.sets[si][wi]
				if !ln.valid {
					continue
				}
				keep := ln.ownedMask | ln.dirtyMask
				if ln.validMask&^keep != 0 {
					l.Stats.InvLines++
				}
				ln.validMask &= keep
				if ln.validMask|ln.ownedMask|ln.dirtyMask == 0 {
					ln.valid = false
				}
			}
		}
		return now + flashLat
	case GPUWT:
		for si := range l.sets {
			for wi := range l.sets[si] {
				ln := &l.sets[si][wi]
				if ln.valid {
					if ln.validMask != 0 {
						l.Stats.InvLines++
					}
					ln.valid = false
					ln.validMask = 0
				}
			}
		}
		return now + flashLat
	}
	panic("cache: unknown protocol")
}

// Flush executes cache_flush: write back all dirty data (no-op on MESI,
// DeNovo and — modulo store-buffer drain — GPU-WT; paper Fig. 3
// legend).
func (l *L1) Flush(now sim.Time) sim.Time {
	l.Stats.FlushOps++
	switch l.proto {
	case MESI, DeNovo:
		return now // ownership propagates dirty data; nothing to do
	case GPUWT:
		// Write-through: nothing is dirty in the cache itself. (The
		// core-level store buffer is drained by the core's fence
		// handling.)
		return now
	case GPUWB:
		// Write back every dirty word in the cache. Writebacks issue one
		// per cycle from the L1 port and complete at the L2; the flush
		// is a fence, so it finishes when the last writeback lands.
		done := now
		issue := now
		for si := range l.sets {
			for wi := range l.sets[si] {
				ln := &l.sets[si][wi]
				if !ln.valid || ln.dirtyMask == 0 {
					continue
				}
				l.Stats.FlushLines++
				c := l.sys.l2WriteBack(issue, l.core, ln.tag, ln.dirtyMask, &ln.data, false)
				issue++
				if c > done {
					done = c
				}
				ln.validMask |= ln.dirtyMask // data remains valid locally
				ln.dirtyMask = 0
			}
		}
		return done
	}
	panic("cache: unknown protocol")
}

// --- recall hooks called by the L2/directory ---

// recallMESI pulls the line back from this (owning) L1, downgrading to
// S or invalidating. It returns the line data and whether it was dirty.
func (l *L1) recallMESI(la mem.Addr, invalidate bool) ([mem.WordsPerLine]uint64, bool) {
	ln := l.find(la)
	if ln == nil {
		panic(fmt.Sprintf("cache: recall of absent line %#x at core %d", uint64(la), l.core))
	}
	data := ln.data
	dirty := ln.state == stateM
	if invalidate {
		ln.valid = false
		ln.state = stateI
	} else {
		ln.state = stateS
	}
	return data, dirty
}

// invalidateMESILine drops a shared copy (writer-initiated
// invalidation from the directory).
func (l *L1) invalidateMESILine(la mem.Addr) {
	if ln := l.find(la); ln != nil {
		ln.valid = false
		ln.state = stateI
	}
}

// recallWords surrenders DeNovo ownership of the masked words,
// returning their data. The local copy stays valid (clean).
func (l *L1) recallWords(la mem.Addr, mask uint8) [mem.WordsPerLine]uint64 {
	ln := l.find(la)
	if ln == nil {
		panic(fmt.Sprintf("cache: word recall of absent line %#x at core %d", uint64(la), l.core))
	}
	ln.validMask |= ln.ownedMask & mask
	ln.ownedMask &^= mask
	return ln.data
}

// debugDirtyWord reports this cache's dirty/owned copy of a word, if
// it has one. Test-only.
func (l *L1) debugDirtyWord(la mem.Addr, w int) (uint64, bool) {
	ln := l.find(la)
	if ln == nil {
		return 0, false
	}
	bit := uint8(1) << w
	if (l.proto == MESI && ln.state == stateM) ||
		ln.ownedMask&bit != 0 || ln.dirtyMask&bit != 0 {
		return ln.data[w], true
	}
	return 0, false
}
