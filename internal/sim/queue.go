package sim

import "math/bits"

const (
	// wheelSize is the timing wheel's width in cycles, a power of two.
	// 8192 keeps the ULI steal timers (4096) where Stop is an unlink.
	wheelSize = 8192
	// inOverflow in eventSlot.prev marks a slot in the overflow heap.
	inOverflow = -2
)

// eventQueue is the kernel's queue: a timing wheel of one-cycle
// buckets for the events in [cur, cur+wheelSize), and a binary heap for
// everything later. A bucket is a FIFO threaded through the slots
// (eventSlot.next/prev): push links, pop unlinks, nothing is sifted.
// DESIGN.md §12 "The queue" argues that pop order is still (time, seq).
type eventQueue struct {
	// cur, the window base, only ever takes the time of a live
	// dispatched event, so cur <= now and no push lands below it.
	cur Time
	n   int  // wheel-resident entries; none is a tombstone
	min Time // the earliest of them, while n > 0
	// over holds the entries at >= cur+wheelSize, tombstones included.
	over       eventHeap
	tombstones int
	// l0 has a bit per occupied bucket, l1 a bit per nonzero l0 word.
	l1 [(wheelSize/64 + 63) / 64]uint64
	l0 [wheelSize / 64]uint64
	// Bucket ends as slot index + 1: the zero value is an empty wheel.
	b [wheelSize]struct{ head, tail int32 }
}

func (q *eventQueue) len() int { return q.n + len(q.over) }

// push queues the slot ref names.
func (q *eventQueue) push(slots []eventSlot, ref eventRef) {
	s := &slots[ref.idx]
	if ref.at-q.cur >= wheelSize {
		s.prev = inOverflow
		q.over.push(ref)
		return
	}
	b := int(ref.at % wheelSize)
	bk := &q.b[b]
	s.at, s.next, s.prev = ref.at, -1, bk.tail-1
	if bk.tail == 0 {
		bk.head = ref.idx + 1
		q.l0[b>>6] |= 1 << (b & 63)
		q.l1[b>>12] |= 1 << (b >> 6 & 63)
	} else {
		slots[bk.tail-1].next = ref.idx
	}
	bk.tail = ref.idx + 1
	if q.n++; q.n == 1 || ref.at < q.min {
		q.min = ref.at
	}
}

// unlink removes wheel-resident slot idx: the head on a pop, any entry
// on a Timer.Stop. A head's prev is stale and never read.
func (q *eventQueue) unlink(slots []eventSlot, idx int32) {
	s := &slots[idx]
	b := int(s.at % wheelSize)
	bk := &q.b[b]
	switch {
	case bk.head != idx+1:
		slots[s.prev].next = s.next
		if bk.tail == idx+1 {
			bk.tail = s.prev + 1
		} else {
			slots[s.next].prev = s.prev
		}
	case s.next >= 0:
		bk.head = s.next + 1
	default:
		bk.head, bk.tail = 0, 0
		if q.l0[b>>6] &^= 1 << (b & 63); q.l0[b>>6] == 0 {
			q.l1[b>>12] &^= 1 << (b >> 6 & 63)
		}
		if s.at == q.min && q.n > 1 {
			// The rest of the wheel lies within one turn after the old min.
			next := q.scan(b)
			if next < 0 {
				next = q.scan(0)
			}
			q.min += Time((next - b) & (wheelSize - 1))
		}
	}
	q.n--
}

// scan returns the first occupied bucket at or after from, or -1.
func (q *eventQueue) scan(from int) int {
	w := from >> 6
	if m := q.l0[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for w++; w < len(q.l0); w = (w | 63) + 1 {
		if m := q.l1[w>>6] >> (w & 63); m != 0 {
			w += bits.TrailingZeros64(m)
			return w<<6 + bits.TrailingZeros64(q.l0[w])
		}
	}
	return -1
}

// pop removes the earliest entry (a tombstone only out of the overflow).
func (q *eventQueue) pop(k *Kernel) eventRef {
	if q.n == 0 {
		return q.over.popRoot()
	}
	at := q.min
	idx := q.b[at%wheelSize].head - 1
	q.unlink(k.slots, idx)
	return eventRef{at: at, idx: idx}
}

// advance moves the window base to at, the time of the live event being
// dispatched, and migrates the overflow entries the window now covers —
// here, before that event's callback can push behind them. Moved on any
// other occasion, cur could pass a time something may still schedule at.
func (q *eventQueue) advance(k *Kernel, at Time) {
	q.cur = at
	for len(q.over) > 0 && q.over[0].at-at < wheelSize {
		ref := q.over.popRoot()
		if s := &k.slots[ref.idx]; s.fn == nil && s.proc == nil {
			q.tombstones--
			k.freeSlot(ref.idx)
			continue
		}
		q.push(k.slots, ref)
	}
}

// compactTombstoneFloor keeps small overflows from compacting
// constantly; below it the lazy pop-time skip is always cheaper.
const compactTombstoneFloor = 32

// compact rebuilds the overflow heap without tombstones once cancelled
// entries outnumber half the live ones, bounding its growth under
// arm/cancel churn of timers beyond the wheel to O(live events).
func (q *eventQueue) compact(k *Kernel) {
	if q.tombstones < compactTombstoneFloor {
		return
	}
	if live := len(q.over) - q.tombstones; q.tombstones <= live/2 {
		return
	}
	heap := q.over
	w := 0
	for _, ref := range heap {
		if s := &k.slots[ref.idx]; s.fn == nil && s.proc == nil {
			k.freeSlot(ref.idx)
			continue
		}
		heap[w] = ref
		w++
	}
	heap = heap[:w]
	q.over = heap
	q.tombstones = 0
	for i := w/2 - 1; i >= 0; i-- {
		heap.siftDown(i)
	}
}

// refLess orders heap entries by (time, scheduling order).
func refLess(a, b eventRef) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of eventRef values ordered by refLess:
// the queue's overflow, behind the timing wheel.
type eventHeap []eventRef

// push adds a heap entry (sift-up on the value slice).
func (h *eventHeap) push(ref eventRef) {
	*h = append(*h, ref)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// popRoot removes and returns the minimum heap entry.
func (h *eventHeap) popRoot() eventRef {
	q := *h
	root := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	q.siftDown(0)
	return root
}

func (q eventHeap) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && refLess(q[r], q[l]) {
			m = r
		}
		if !refLess(q[m], q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
