package cache

import (
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// l2GetLine services a read request for the line containing la.
// For MESI requesters it updates the directory (sharer list or an E
// grant); for software-centric requesters the directory does not track
// the copy (reader-initiated invalidation makes tracking unnecessary,
// which is the protocols' key complexity saving).
func (s *System) l2GetLine(now sim.Time, core int, la mem.Addr, exclusive, isMESI bool) (data [mem.WordsPerLine]uint64, grantedE bool, done sim.Time) {
	b := s.bankFor(la)
	t := s.mesh.Send(now, s.cfg.CoreNode[core], b.node, reqBytes, noc.CPUReq)
	t = b.res.Acquire(t, s.cfg.BankLat)
	line, t := s.lookup(t, b, la)
	respFrom := b.node
	if exclusive {
		// MESI GetM: writer-initiated invalidation of every other copy
		// in the hardware-coherent domain plus recall of registered
		// words.
		var fwd noc.NodeID
		var hadData bool
		t, fwd, hadData = s.recallOwner(t, b, line, true)
		if hadData {
			respFrom = fwd // owner forwards data to the requester
		}
		t = s.invalidateSharers(t, b, line, core)
		t = s.recallWords(t, b, line, 0xFF, -1)
		line.sharers.clear(core)
		line.owner = core
	} else {
		// A read: fetch dirty data from the MESI owner (downgrading it
		// to S) and from any DeNovo word owners (ownership moves to the
		// L2, which then supplies future readers).
		var fwd noc.NodeID
		var hadData bool
		t, fwd, hadData = s.recallOwner(t, b, line, false)
		if hadData {
			respFrom = fwd
		}
		t = s.recallWords(t, b, line, 0xFF, -1)
		if isMESI {
			if line.owner < 0 && line.sharers.empty() {
				line.owner = core // E grant: exclusive clean
				grantedE = true
			} else {
				line.sharers.set(core)
			}
		}
	}
	// Owner->requester forwarding: when dirty data came from another
	// L1, the data response travels directly from that core (the bank
	// has already been updated for inclusivity); t at this point is the
	// forwarding departure time.
	done = s.mesh.Send(t, respFrom, s.cfg.CoreNode[core], lineRespBytes, noc.DataResp)
	return line.data, grantedE, done
}

// l2Upgrade services a MESI S->M upgrade: other sharers are invalidated
// and the requester becomes owner. No data transfer is needed.
func (s *System) l2Upgrade(now sim.Time, core int, la mem.Addr) (done sim.Time) {
	b := s.bankFor(la)
	t := s.mesh.Send(now, s.cfg.CoreNode[core], b.node, reqBytes, noc.CPUReq)
	t = b.res.Acquire(t, s.cfg.BankLat)
	line, t := s.lookup(t, b, la)
	t, _, _ = s.recallOwner(t, b, line, true) // raced M elsewhere: pull it back
	t = s.invalidateSharers(t, b, line, core)
	t = s.recallWords(t, b, line, 0xFF, -1)
	line.sharers.clear(core)
	line.owner = core
	return s.mesh.Send(t, b.node, s.cfg.CoreNode[core], ackBytes, noc.DataResp)
}

// l2RegisterWord services a DeNovo write registration: the word's
// ownership transfers to the requesting core. The current word value is
// returned so the L1 can install a coherent copy.
func (s *System) l2RegisterWord(now sim.Time, core int, la mem.Addr, widx int) (word uint64, done sim.Time) {
	b := s.bankFor(la)
	t := s.mesh.Send(now, s.cfg.CoreNode[core], b.node, reqBytes, noc.CPUReq)
	t = b.res.Acquire(t, s.cfg.BankLat)
	line, t := s.lookup(t, b, la)
	t = s.acquireForWrite(t, b, line, core, 1<<widx)
	line.wordOwner[widx] = int32(core)
	done = s.mesh.Send(t, b.node, s.cfg.CoreNode[core], wordRespBytes, noc.DataResp)
	return line.data[widx], done
}

// l2WriteThrough applies a GPU-WT store at the shared cache. The store
// is posted: the returned time is when the write is globally visible,
// which the core's store buffer tracks but does not stall on.
func (s *System) l2WriteThrough(now sim.Time, core int, la mem.Addr, widx int, val uint64) (done sim.Time) {
	b := s.bankFor(la)
	t := s.mesh.Send(now, s.cfg.CoreNode[core], b.node, wbBytes(1<<widx), noc.WBReq)
	t = b.res.Acquire(t, s.cfg.BankLat)
	line, t := s.lookup(t, b, la)
	t = s.acquireForWrite(t, b, line, core, 1<<widx)
	line.data[widx] = val
	line.dirty = true
	return t
}

// l2WriteBack applies a word-masked writeback (a dirty eviction, a
// GPU-WB flush, or a MESI/DeNovo owner returning data). fromOwnership
// distinguishes writebacks by the registered owner (no other copies can
// exist, so no invalidations are needed) from GPU-WB writebacks (the
// MESI domain may hold stale copies that must be invalidated).
func (s *System) l2WriteBack(now sim.Time, core int, la mem.Addr, mask uint8, words *[mem.WordsPerLine]uint64, fromOwnership bool) (done sim.Time) {
	if mask == 0 {
		return now
	}
	b := s.bankFor(la)
	t := s.mesh.Send(now, s.cfg.CoreNode[core], b.node, wbBytes(mask), noc.WBReq)
	t = b.res.Acquire(t, s.cfg.BankLat)
	line, t := s.lookup(t, b, la)
	if fromOwnership {
		// The writer was the owner: just clear its registrations.
		if line.owner == core {
			line.owner = -1
		}
		for w := 0; w < mem.WordsPerLine; w++ {
			if mask&(1<<w) != 0 && line.wordOwner[w] == int32(core) {
				line.wordOwner[w] = -1
			}
		}
	} else {
		t = s.acquireForWrite(t, b, line, core, mask)
	}
	for w := 0; w < mem.WordsPerLine; w++ {
		if mask&(1<<w) != 0 {
			line.data[w] = words[w]
		}
	}
	line.dirty = true
	return t
}

// l2Amo performs an atomic at the shared cache (required for protocols
// without ownership; paper §II-A). If dirtyWord is non-nil the
// requester's dirty copy of the word rides along and is applied first.
func (s *System) l2Amo(now sim.Time, core int, la mem.Addr, widx int, op AmoOp, arg1, arg2 uint64, dirtyWord *uint64) (old uint64, done sim.Time) {
	b := s.bankFor(la)
	t := s.mesh.Send(now, s.cfg.CoreNode[core], b.node, amoReqBytes, noc.SyncReq)
	t = b.res.Acquire(t, s.cfg.BankLat+s.cfg.AmoLat)
	line, t := s.lookup(t, b, la)
	t = s.acquireForWrite(t, b, line, core, 1<<widx)
	if dirtyWord != nil {
		line.data[widx] = *dirtyWord
		line.dirty = true
	}
	old = line.data[widx]
	if newVal, write := ApplyAmo(op, old, arg1, arg2); write {
		line.data[widx] = newVal
		line.dirty = true
	}
	s.L2Stats.AmoOps++
	done = s.mesh.Send(t, b.node, s.cfg.CoreNode[core], amoRespBytes, noc.SyncResp)
	return old, done
}

// l2EvictNotify informs the directory that a MESI L1 silently dropped a
// clean line (keeping the sharer list precise, paper §V-A). The message
// is posted; the core does not wait.
func (s *System) l2EvictNotify(now sim.Time, core int, la mem.Addr) {
	b := s.bankFor(la)
	s.mesh.Send(now, s.cfg.CoreNode[core], b.node, reqBytes, noc.CohReq)
	if line, ok := s.peek(b, la); ok {
		line.sharers.clear(core)
		if line.owner == core {
			line.owner = -1
		}
	}
}

// peek returns the L2 line for la if present, without filling. A set
// no fill has touched has no ways: a miss, and it stays unallocated.
func (s *System) peek(b *bank, la mem.Addr) (l2Ref, bool) {
	set := &b.sets[b.setIndex(la, len(s.banks), s.cfg.L2SetsPerBank)]
	for i := range set.ways {
		if set.ways[i].valid && set.ways[i].tag == la {
			return s.way(set, i), true
		}
	}
	return l2Ref{}, false
}

// DebugReadWord returns the architecturally freshest value of the word
// at a, looking through dirty L1 copies, then the L2, then DRAM. It is
// intended for test assertions and end-of-run verification and performs
// no timing.
func (s *System) DebugReadWord(a mem.Addr) uint64 {
	la := mem.LineAddr(a)
	w := mem.WordIndex(a)
	for _, l1 := range s.l1s {
		if l1 == nil {
			continue
		}
		if v, ok := l1.debugDirtyWord(la, w); ok {
			return v
		}
	}
	if line, ok := s.peek(s.bankFor(la), la); ok {
		return line.data[w]
	}
	return s.mem.ReadWord(a)
}
