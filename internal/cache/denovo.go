package cache

import (
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// DeNovo (DeNovoSync variant): reader-initiated invalidation, owner
// write-back, word granularity (Table I). cache_flush is a no-op —
// ownership propagates dirty data; cache_invalidate drops clean words
// but keeps owned words (this core's own writes).

func (l *L1) loadDeNovo(now sim.Time, a mem.Addr) (uint64, sim.Time) {
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	bit := uint8(1) << w
	ln := l.find(la)
	if ln != nil && (ln.validMask|ln.ownedMask)&bit != 0 {
		l.touch(ln)
		return ln.data[w], now + l.hitLat
	}
	l.Stats.LoadMisses++
	data, _, done := l.sys.l2GetLine(now+l.hitLat, l.core, la, false, false)
	if ln == nil {
		ln = l.allocSlot(now, la)
	} else {
		l.touch(ln)
	}
	// Merge: words we own keep our local (newer) values.
	for i := 0; i < mem.WordsPerLine; i++ {
		if ln.ownedMask&(1<<i) == 0 {
			ln.data[i] = data[i]
		}
	}
	ln.validMask = 0xFF &^ ln.ownedMask
	return ln.data[w], done
}

func (l *L1) storeDeNovo(now sim.Time, a mem.Addr, v uint64) sim.Time {
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	bit := uint8(1) << w
	ln := l.find(la)
	if ln != nil && ln.ownedMask&bit != 0 {
		l.touch(ln)
		ln.data[w] = v
		return now + l.hitLat
	}
	// Register the word with the LLC (acquire ownership).
	l.Stats.StoreMisses++
	word, done := l.sys.l2RegisterWord(now+l.hitLat, l.core, la, w)
	if ln == nil {
		ln = l.allocSlot(now, la)
	} else {
		l.touch(ln)
	}
	_ = word // registration returns the current value; the store overwrites it
	ln.ownedMask |= bit
	ln.validMask &^= bit
	ln.data[w] = v
	return done
}

// amoDeNovo acquires word ownership and performs the atomic locally
// (like MESI, ownership makes private-cache atomics safe).
func (l *L1) amoDeNovo(now sim.Time, a mem.Addr, op AmoOp, arg1, arg2 uint64) (uint64, sim.Time) {
	const amoLocalLat = 2
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	bit := uint8(1) << w
	ln := l.find(la)
	var ready sim.Time
	if ln != nil && ln.ownedMask&bit != 0 {
		l.touch(ln)
		ready = now + l.hitLat
	} else {
		word, done := l.sys.l2RegisterWord(now+l.hitLat, l.core, la, w)
		if ln == nil {
			ln = l.allocSlot(now, la)
		} else {
			l.touch(ln)
		}
		ln.ownedMask |= bit
		ln.validMask &^= bit
		ln.data[w] = word
		ready = done
	}
	old := ln.data[w]
	if newVal, write := ApplyAmo(op, old, arg1, arg2); write {
		ln.data[w] = newVal
	}
	return old, ready + amoLocalLat
}
