package cache

import (
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// MESI protocol: writer-initiated invalidation, owner write-back, line
// granularity (Table I). Invalidate/flush are no-ops; all coherence is
// in hardware.

func (l *L1) loadMESI(now sim.Time, a mem.Addr) (uint64, sim.Time) {
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	if ln := l.find(la); ln != nil && ln.state != stateI {
		l.touch(ln)
		return ln.data[w], now + l.hitLat
	}
	l.Stats.LoadMisses++
	data, grantedE, done := l.sys.l2GetLine(now+l.hitLat, l.core, la, false, true)
	ln := l.allocSlot(now, la)
	ln.data = data
	ln.state = stateS
	if grantedE {
		ln.state = stateE
	}
	return ln.data[w], done
}

func (l *L1) storeMESI(now sim.Time, a mem.Addr, v uint64) sim.Time {
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	ln := l.find(la)
	switch {
	case ln != nil && ln.state == stateM:
		l.touch(ln)
		ln.data[w] = v
		return now + l.hitLat
	case ln != nil && ln.state == stateE:
		// Silent E->M upgrade; the directory already records us as
		// exclusive owner.
		l.touch(ln)
		ln.state = stateM
		ln.data[w] = v
		return now + l.hitLat
	case ln != nil && ln.state == stateS:
		// Upgrade: invalidate the other sharers.
		done := l.sys.l2Upgrade(now+l.hitLat, l.core, la)
		l.touch(ln)
		ln.state = stateM
		ln.data[w] = v
		return done
	default:
		l.Stats.StoreMisses++
		data, _, done := l.sys.l2GetLine(now+l.hitLat, l.core, la, true, true)
		ln = l.allocSlot(now, la)
		ln.data = data
		ln.state = stateM
		ln.data[w] = v
		return done
	}
}

// amoMESI acquires M state and performs the atomic in the private
// cache (ownership makes this safe; paper §II-A).
func (l *L1) amoMESI(now sim.Time, a mem.Addr, op AmoOp, arg1, arg2 uint64) (uint64, sim.Time) {
	const amoLocalLat = 2
	la, w := mem.LineAddr(a), mem.WordIndex(a)
	ln := l.find(la)
	var ready sim.Time
	if ln != nil && (ln.state == stateM || ln.state == stateE) {
		l.touch(ln)
		ln.state = stateM
		ready = now + l.hitLat
	} else if ln != nil && ln.state == stateS {
		ready = l.sys.l2Upgrade(now+l.hitLat, l.core, la)
		l.touch(ln)
		ln.state = stateM
	} else {
		l.Stats.StoreMisses++
		data, _, done := l.sys.l2GetLine(now+l.hitLat, l.core, la, true, true)
		ln = l.allocSlot(now, la)
		ln.data = data
		ln.state = stateM
		ready = done
	}
	old := ln.data[w]
	if newVal, write := ApplyAmo(op, old, arg1, arg2); write {
		ln.data[w] = newVal
	}
	return old, ready + amoLocalLat
}
