package sim

import "math/bits"

const (
	// wheelSize is the timing wheel's width in cycles, a power of two.
	// 8192 keeps the ULI steal timers (4096) in the wheel, where Stop is
	// an O(1) unlink.
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
	// cur, the window base, only ever takes the time of a dispatched
	// event, so cur <= now and no push lands below it.
	cur Time
	n   int  // wheel-resident entries
	min Time // the earliest of them, while n > 0
	// over holds the entries at >= cur+wheelSize.
	over eventHeap
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

// peek returns the firing time of the earliest entry.
func (q *eventQueue) peek() (Time, bool) {
	if q.n > 0 {
		return q.min, true
	}
	if len(q.over) > 0 {
		return q.over[0].at, true
	}
	return 0, false
}

// pop removes the earliest entry.
func (q *eventQueue) pop(k *Kernel) eventRef {
	if q.n == 0 {
		return q.over.popRoot()
	}
	at := q.min
	idx := q.b[at%wheelSize].head - 1
	q.unlink(k.slots, idx)
	return eventRef{at: at, idx: idx}
}

// advance moves the window base to at, the time of the event being
// dispatched, and migrates the overflow entries the window now covers —
// here, before that event's callback can push behind them. Moved on any
// other occasion, cur could pass a time something may still schedule at.
func (q *eventQueue) advance(slots []eventSlot, at Time) {
	q.cur = at
	for len(q.over) > 0 && q.over[0].at-at < wheelSize {
		q.push(slots, q.over.popRoot())
	}
}

// remove takes slot idx's entry off the queue (Timer.Stop). An
// overflow entry is found by a linear search: only a timer a wheel or
// more ahead sits there, and no simulation stops one.
func (q *eventQueue) remove(slots []eventSlot, idx int32) {
	if slots[idx].prev != inOverflow {
		q.unlink(slots, idx)
		return
	}
	for i, ref := range q.over {
		if ref.idx == idx {
			q.over.remove(i)
			return
		}
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

// push adds a heap entry.
func (h *eventHeap) push(ref eventRef) {
	*h = append(*h, ref)
	h.siftUp(len(*h) - 1)
}

// popRoot removes and returns the minimum heap entry.
func (h *eventHeap) popRoot() eventRef {
	root := (*h)[0]
	h.remove(0)
	return root
}

// remove deletes entry i: the last entry takes its place and sifts
// whichever way restores the heap order.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	q[i] = q[n]
	q = q[:n]
	*h = q
	if i < n {
		q.siftDown(i)
		q.siftUp(i)
	}
}

func (q eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(q[i], q[parent]) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
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
