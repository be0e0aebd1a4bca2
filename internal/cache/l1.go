package cache

import (
	"fmt"

	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// L1 timing beyond the hit latency, in cycles.
const (
	flashLat    = 2 // cache_invalidate's flash clear
	amoLocalLat = 2 // an atomic in an owning L1 (MESI, DeNovo; paper §II-A)
)

// l1Line is one way of a private L1 set. Every protocol keeps the
// line's state in its word masks (Table I "Write Granularity"), and
// MESI's masks are all or nothing: S and E are a line of valid words
// (excl marks E), M a line of owned words.
type l1Line struct {
	tag   mem.Addr
	valid bool
	excl  bool // MESI E: the valid words are held exclusive and clean

	validMask uint8 // words with a (possibly clean) coherent-at-fetch copy
	dirtyMask uint8 // GPU-WB: locally dirty words awaiting flush/evict
	ownedMask uint8 // MESI M and DeNovo: words this core owns

	data    [mem.WordsPerLine]uint64
	lastUse uint64
}

// L1 is a private data cache attached to one core. One mechanism on the
// word masks serves all four protocols; the configured Protocol selects
// only what Table I says differs: GPU-WT's write-through, GPU-WB's local
// dirtying and flush, the no-owner protocols' AMOs at the L2, and
// MESI's directory messages.
type L1 struct {
	sys   *System
	core  int
	node  noc.NodeID
	proto Protocol

	numSets int
	ways    int
	sets    [][]l1Line // a set is nil until allocSlot first fills it
	spare   [][]l1Line // sets earlier runs filled (reset), for allocSlot
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
	if proto < MESI || proto > GPUWB {
		panic(fmt.Sprintf("cache: unknown %v", proto))
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
	l.reset()
	sys.l1s[core] = l
	return l
}

// reset empties the cache and zeroes the counters and LRU clock. The
// sets a run filled go back to unfilled, and allocSlot hands their
// memory out again, cleared.
func (l *L1) reset() {
	for si, set := range l.sets {
		if set != nil {
			l.spare = append(l.spare, set)
			l.sets[si] = nil
		}
	}
	l.tick, l.Stats = 0, L1Stats{}
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
		set = l.newSet()
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

// newSet returns a set of invalid ways: a spare one cleared, or a new
// one.
func (l *L1) newSet() []l1Line {
	n := len(l.spare)
	if n == 0 {
		return make([]l1Line, l.ways)
	}
	set := l.spare[n-1]
	l.spare = l.spare[:n-1]
	clear(set)
	return set
}

// evict writes the line's owned or dirty words back, or tells the
// directory that a clean MESI copy left. Writebacks are posted: the
// core does not wait for them.
func (l *L1) evict(now sim.Time, ln *l1Line) {
	if wb := ln.ownedMask | ln.dirtyMask; wb != 0 {
		l.Stats.EvictWBLines++
		l.sys.l2WriteBack(now, l.core, ln.tag, wb, &ln.data, ln.ownedMask != 0)
	} else if l.proto == MESI {
		l.sys.l2EvictNotify(now, l.core, ln.tag)
	}
	ln.valid = false
}

// hold returns ln, touched, or a line newly installed for la if ln is
// nil.
func (l *L1) hold(now sim.Time, la mem.Addr, ln *l1Line) *l1Line {
	if ln == nil {
		return l.allocSlot(now, la)
	}
	l.touch(ln)
	return ln
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
// time. A valid, owned or dirty word hits. A miss fetches the line and
// merges it around the owned and dirty words, which are this core's
// own writes and newer than the L2's copy.
func (l *L1) Load(now sim.Time, a mem.Addr) (uint64, sim.Time) {
	l.Stats.Loads++
	l.pressureFault(now, a)
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	ln := l.find(la)
	done := now + l.hitLat
	if ln != nil && (ln.validMask|ln.ownedMask|ln.dirtyMask)&(1<<w) != 0 {
		l.touch(ln)
	} else {
		l.Stats.LoadMisses++
		var data [mem.WordsPerLine]uint64
		var grantedE bool
		data, grantedE, done = l.sys.l2GetLine(done, l.core, la, false, l.proto == MESI)
		ln = l.hold(now, la, ln)
		keep := ln.ownedMask | ln.dirtyMask
		for i := range data {
			if keep&(1<<i) == 0 {
				ln.data[i] = data[i]
			}
		}
		ln.validMask, ln.excl = 0xFF&^keep, grantedE
	}
	v := ln.data[w]
	if l.Oracle != nil {
		l.Oracle.OnLoad(l.core, uint64(a), v)
	}
	return v, done
}

// Store writes v to the word at a, returning the completion time.
func (l *L1) Store(now sim.Time, a mem.Addr, v uint64) sim.Time {
	l.Stats.Stores++
	l.pressureFault(now, a)
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	bit := uint8(1) << w
	var done sim.Time
	switch l.proto {
	case MESI, DeNovo:
		var ln *l1Line
		ln, done = l.own(now, la, w, true)
		ln.data[w] = v
	case GPUWT:
		// Write-through without write-allocate: a local clean copy is
		// updated. The store completes when it is globally visible at
		// the L2; the core's store buffer decides whether to stall on it.
		if ln := l.find(la); ln != nil && ln.validMask&bit != 0 {
			l.touch(ln)
			ln.data[w] = v
		} else {
			l.Stats.StoreMisses++
		}
		done = l.sys.l2WriteThrough(now+l.hitLat, l.core, la, w, v)
	case GPUWB:
		// Write-allocate without fetch: per-word dirty bits let a miss
		// install just this word, at zero network cost.
		ln := l.find(la)
		if ln == nil {
			l.Stats.StoreMisses++
		}
		ln = l.hold(now, la, ln)
		ln.data[w] = v
		ln.dirtyMask |= bit
		ln.validMask |= bit
		done = now + l.hitLat
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
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	var old uint64
	var done sim.Time
	if l.proto == GPUWT || l.proto == GPUWB {
		old, done = l.amoAtL2(now, la, w, op, arg1, arg2)
	} else {
		ln, ready := l.own(now, la, w, false)
		old = ln.data[w]
		if newVal, write := ApplyAmo(op, old, arg1, arg2); write {
			ln.data[w] = newVal
		}
		done = ready + amoLocalLat
	}
	if l.Oracle != nil {
		newVal, wrote := ApplyAmo(op, old, arg1, arg2)
		l.Oracle.OnAmo(l.core, uint64(a), old, newVal, wrote)
	}
	return old, done
}

// own gives a MESI or DeNovo L1 write ownership of word w of la, and
// returns the line and when the core may write it. MESI owns whole
// lines: E becomes M silently, S upgrades at the directory and a miss
// fetches the line exclusive. DeNovo registers just the word with the
// L2. A MESI miss counts as a store miss even for an AMO; a DeNovo
// registration counts only for a store.
func (l *L1) own(now sim.Time, la mem.Addr, w int, store bool) (*l1Line, sim.Time) {
	ln := l.find(la)
	ready := now + l.hitLat
	if ln != nil && ln.ownedMask&(1<<w) != 0 { // M, or a registered word
		l.touch(ln)
		return ln, ready
	}
	m := uint8(1) << w
	if l.proto == MESI {
		m = 0xFF
	}
	switch {
	case ln != nil && ln.excl: // E: the directory already has us as owner
		l.touch(ln)
	case ln != nil && l.proto == MESI:
		ready = l.sys.l2Upgrade(ready, l.core, la)
		l.touch(ln)
	case l.proto == MESI:
		l.Stats.StoreMisses++
		var data [mem.WordsPerLine]uint64
		data, _, ready = l.sys.l2GetLine(ready, l.core, la, true, true)
		ln = l.allocSlot(now, la)
		ln.data = data
	default:
		if store {
			l.Stats.StoreMisses++
		}
		var word uint64
		word, ready = l.sys.l2RegisterWord(ready, l.core, la, w)
		ln = l.hold(now, la, ln)
		ln.data[w] = word
	}
	ln.ownedMask |= m
	ln.validMask &^= m
	ln.excl = false
	return ln, ready
}

// amoAtL2 performs the atomic at the shared L2, as the protocols
// without ownership (GPU-WT, GPU-WB) must. A locally dirty copy of the
// word rides along, and the local copy is dropped so that the next read
// observes the globally ordered value.
func (l *L1) amoAtL2(now sim.Time, la mem.Addr, w int, op AmoOp, arg1, arg2 uint64) (uint64, sim.Time) {
	bit := uint8(1) << w
	var dirtyWord *uint64
	ln := l.find(la)
	if ln != nil && ln.dirtyMask&bit != 0 {
		v := ln.data[w]
		dirtyWord = &v
	}
	old, done := l.sys.l2Amo(now+l.hitLat, l.core, la, w, op, arg1, arg2, dirtyWord)
	if ln != nil {
		ln.validMask &^= bit
		ln.dirtyMask &^= bit
		ln.valid = ln.validMask|ln.dirtyMask != 0
	}
	return old, done
}

// Invalidate executes cache_invalidate, a flash operation: clean words
// are dropped, and owned (DeNovo) and dirty (GPU-WB) words survive,
// being this core's own writes. It is a no-op on MESI, whose copies the
// directory keeps coherent (paper Fig. 3 legend).
func (l *L1) Invalidate(now sim.Time) sim.Time {
	l.Stats.InvOps++
	if l.proto == MESI {
		return now
	}
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
			ln.valid = keep != 0
		}
	}
	return now + flashLat
}

// Flush executes cache_flush: GPU-WB writes back every dirty word. It
// is a no-op on MESI and DeNovo, whose ownership propagates dirty data,
// and on GPU-WT, which holds nothing dirty (the core drains its store
// buffer at the fence); paper Fig. 3 legend.
func (l *L1) Flush(now sim.Time) sim.Time {
	l.Stats.FlushOps++
	if l.proto != GPUWB {
		return now
	}
	// Writebacks issue one per cycle from the L1 port and complete at
	// the L2; the flush is a fence, so it finishes when the last
	// writeback lands.
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

// --- recall hooks called by the L2/directory ---

// held returns the line holding la, which the directory records this
// L1 as holding.
func (l *L1) held(la mem.Addr) *l1Line {
	ln := l.find(la)
	if ln == nil {
		panic(fmt.Sprintf("cache: recall of absent line %#x at core %d", uint64(la), l.core))
	}
	return ln
}

// recall surrenders this L1's ownership of the words in mask, keeping
// them as clean valid copies, or drops the whole line. It returns the
// line's data and the words it owned (an E line owns none).
func (l *L1) recall(la mem.Addr, mask uint8, drop bool) ([mem.WordsPerLine]uint64, uint8) {
	ln := l.held(la)
	owned := ln.ownedMask & mask
	ln.validMask |= owned
	ln.ownedMask &^= mask
	ln.valid, ln.excl = !drop, false
	return ln.data, owned
}

// invalidateMESILine drops a shared copy (writer-initiated
// invalidation from the directory).
func (l *L1) invalidateMESILine(la mem.Addr) {
	if ln := l.find(la); ln != nil {
		ln.valid = false
	}
}

// debugDirtyWord reports this cache's owned or dirty copy of a word, if
// it has one. Test-only.
func (l *L1) debugDirtyWord(la mem.Addr, w int) (uint64, bool) {
	if ln := l.find(la); ln != nil && (ln.ownedMask|ln.dirtyMask)&(1<<w) != 0 {
		return ln.data[w], true
	}
	return 0, false
}
