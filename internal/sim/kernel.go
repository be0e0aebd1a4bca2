// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a time-ordered event queue. Simulated hardware threads
// (Procs) run ordinary Go code on coroutines that the goroutine inside
// Run switches to and from, so exactly one of them executes at any
// moment and the Go scheduler is not involved in a simulated context
// switch. All simulator state can therefore be mutated without locks,
// and a given seed and workload always produce the same cycle counts.
//
// The queue is built for host speed without giving up determinism:
// callbacks live in a slab recycled through a free list (no per-event
// allocation, no boxing) that a timing wheel links in place, and Timer
// handles carry a generation stamp so Stop on a recycled slot is
// detected instead of hitting an unrelated event. See DESIGN.md §12.
package sim

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// Time is simulation time measured in clock cycles.
type Time uint64

// Forever is a time later than any reachable simulation time.
const Forever = Time(^uint64(0))

// KernelParanoid disables the WaitUntil fast path (see
// Proc.WaitUntil): every timed wait goes through a real queue event and
// a dispatch, exactly as the pre-fast-path kernel behaved. cpu reads it
// too and then issues every core op on the spot instead of queueing
// it. The two modes must produce bit-identical cycle counts;
// equivalence tests flip this to prove it. It is read when a kernel or
// a core is made and when one is reset (Kernel.Reset, cpu.Core.Reset),
// so flip it only between simulations.
var KernelParanoid bool

// eventRef is one queue entry: the firing time, a sequence number that
// breaks same-time ties in scheduling order (determinism), and the index
// of the slot holding the callback. Refs are plain values — the
// overflow heap is a []eventRef and sifting moves 24-byte records,
// never pointers the GC has to trace.
type eventRef struct {
	at  Time
	seq uint64
	idx int32
}

// eventSlot holds a scheduled event: either a plain callback (fn) or a
// proc resumption (proc). The distinction lets the dispatcher switch
// to a resuming proc instead of calling through an opaque closure.
// Slots are recycled through a free list; gen increments on every free,
// so a stale Timer handle (slot fired, was stopped, or got reused) can
// be recognized by generation mismatch.
type eventSlot struct {
	fn   func()
	proc *Proc
	at   Time // firing time, while the slot sits in the timing wheel
	gen  uint32
	// next links the free list or, in the wheel, the slot's bucket; prev
	// is the bucket's back link, or inOverflow.
	next, prev int32
}

// Kernel is the discrete-event engine. The zero value is not usable;
// call NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	slots []eventSlot
	free  int32 // head of the slot free list, -1 when empty
	procs []*Proc

	// paranoid disables the WaitUntil fast path (see KernelParanoid).
	paranoid bool
	// stop is the active Run's stop predicate, consulted by the
	// WaitUntil fast path so eliding an event cannot elide a stop check
	// that would have fired.
	stop func() bool

	// Host-performance counters (free to maintain, exported for the
	// benchmarking rig): events scheduled, callbacks fired, timed waits
	// satisfied in place without a queue event, and coroutine resumes.
	scheduled uint64
	fired     uint64
	fastWaits uint64
	resumes   uint64

	// maxTime aborts runaway simulations (e.g. a livelocked runtime).
	maxTime Time
	// intrReason, when non-nil, is an asynchronous abort request (see
	// Interrupt). It is the only kernel field another goroutine may
	// touch while a simulation runs, hence the atomic.
	intrReason atomic.Pointer[string]
	// interruptHit mirrors deadlineHit for interrupts: set by the
	// dispatcher that observed the request, consumed by Run.
	interruptHit bool
	// err records a crash in simulated software (a proc panic); Run
	// stops and returns it, modelling a machine crash.
	err error
	// drained: the last Run emptied the queue with every proc finished.
	drained bool

	// Dispatch state (see dispatch). A dispatcher on a proc coroutine
	// leaves the proc that runs next in nextProc for its resumer (see
	// resume). A run-level condition travels in the fields below,
	// whoever saw it, and is consumed by Run.
	nextProc    *Proc
	stopHit     bool
	deadlineHit bool
	deadlineAt  Time
	// cbPanic carries a panic out of an event callback (or a
	// resume-after-finish bug) back to Run, which re-panics with it:
	// simulator bugs stay loud no matter who held the token when they
	// fired.
	cbPanic any

	// dumpHooks are extra diagnostic writers (registered by higher
	// layers: ULI fabric state, runtime deque occupancy, ...) appended
	// to DumpState output and watchdog errors.
	dumpHooks []func(io.Writer)

	// queue is last, because the wheel is large.
	queue eventQueue
}

// NewKernel returns an empty kernel positioned at cycle 0.
func NewKernel() *Kernel {
	k := new(Kernel)
	k.Reset()
	return k
}

// Reset returns a kernel to the state NewKernel builds, keeping the
// memory of its slot slab, proc list and overflow heap. It drops every
// proc, callback and dump hook, so only a kernel with nothing left to
// run (see Finished) may be reset: a stale Timer handle or a parked
// proc would otherwise outlive it.
func (k *Kernel) Reset() {
	clear(k.procs)
	clear(k.dumpHooks)
	slots, procs, hooks, over := k.slots[:0], k.procs[:0], k.dumpHooks[:0], k.queue.over[:0]
	// Cleared in place: a Kernel literal, wheel and all, would be built
	// aside and copied.
	*k = Kernel{}
	k.slots, k.procs, k.dumpHooks, k.queue.over = slots, procs, hooks, over
	k.free, k.paranoid, k.maxTime = -1, KernelParanoid, Forever
}

// Finished reports whether the last Run took the simulation to its
// end: it drained the queue with every proc finished, nothing has been
// queued since, and no interrupt has been requested since.
func (k *Kernel) Finished() bool {
	return k.drained && k.queue.len() == 0 && k.intrReason.Load() == nil
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// SetDeadline makes Run fail once simulated time exceeds t. Useful as a
// watchdog against livelocked simulated software.
func (k *Kernel) SetDeadline(t Time) { k.maxTime = t }

// SetParanoid toggles the WaitUntil fast path on an existing kernel
// (see KernelParanoid).
func (k *Kernel) SetParanoid(on bool) { k.paranoid = on }

// Interrupt requests an asynchronous abort of the running simulation:
// the next dispatch (or WaitUntil fast path) observes the request and
// Run returns a watchdog error carrying reason plus the full machine
// dump, exactly like a deadline. It is the one kernel entry point that
// is safe to call from another goroutine — a serving layer uses it to
// cancel an in-flight job on a wall-clock timeout or a shutdown drain.
// The first reason wins; later calls are no-ops.
func (k *Kernel) Interrupt(reason string) {
	k.intrReason.CompareAndSwap(nil, &reason)
}

// Scheduled returns the number of events scheduled so far.
func (k *Kernel) Scheduled() uint64 { return k.scheduled }

// Fired returns the number of event callbacks that have run.
func (k *Kernel) Fired() uint64 { return k.fired }

// FastWaits returns the number of timed waits satisfied in place by
// the WaitUntil fast path (no event, no switch).
func (k *Kernel) FastWaits() uint64 { return k.fastWaits }

// Resumes returns the number of switches into a proc coroutine.
func (k *Kernel) Resumes() uint64 { return k.resumes }

// fail records a simulated-software crash.
func (k *Kernel) fail(err error) {
	if k.err == nil {
		k.err = err
	}
}

// allocSlot takes a slot off the free list (or grows the slab) and
// installs the event payload — a callback or a proc resumption.
// Returns the slot index and its current generation.
func (k *Kernel) allocSlot(fn func(), p *Proc) (int32, uint32) {
	if k.free >= 0 {
		idx := k.free
		s := &k.slots[idx]
		k.free = s.next
		s.fn = fn
		s.proc = p
		return idx, s.gen
	}
	k.slots = append(k.slots, eventSlot{fn: fn, proc: p})
	return int32(len(k.slots) - 1), 0
}

// freeSlot returns a slot to the free list, bumping its generation so
// outstanding Timer handles to it go stale.
func (k *Kernel) freeSlot(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.proc = nil
	s.gen++
	s.next = k.free
	k.free = idx
}

// schedule allocates a slot for a callback fn or a resumption of proc
// p and queues it at time t. Resumes are tagged in the slot (rather
// than hidden in a closure) so the dispatcher can switch to p's
// coroutine.
func (k *Kernel) schedule(t Time, fn func(), p *Proc) (int32, uint32) {
	k.seq++
	k.scheduled++
	idx, gen := k.allocSlot(fn, p)
	k.queue.push(k.slots, eventRef{at: t, seq: k.seq, idx: idx})
	return idx, gen
}

// scheduleResume queues proc p to resume at time t.
func (k *Kernel) scheduleResume(t Time, p *Proc) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.schedule(t, nil, p)
}

// At schedules fn to run at time t. Scheduling in the past is an error
// in the simulator itself, so it panics.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.schedule(t, fn, nil)
}

// Timer is a cancellable one-shot event, the building block for
// simulated-cycle timeouts (e.g. the ULI steal-request timeout). Stop
// takes the timer's entry off the queue, so arming-and-cancelling
// timers is observationally free: cycle counts are bit-identical to a
// run that never armed them.
//
// The handle names its event by (slot, generation): once the callback
// fires or the timer is stopped, the slot's generation moves on, and a
// late Stop through the stale handle is a detected no-op rather than a
// cancellation of whatever stranger now occupies the recycled slot.
type Timer struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Stop cancels the timer. It reports whether the cancellation was in
// time (false if the callback already ran or Stop was already called).
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.k.queue.remove(t.k.slots, t.idx)
	t.k.freeSlot(t.idx)
	return true
}

// Active reports whether the timer is still armed (not fired, not
// stopped).
func (t *Timer) Active() bool {
	if t == nil || t.k == nil {
		return false
	}
	s := &t.k.slots[t.idx]
	return s.gen == t.gen && s.fn != nil
}

// TimerAt schedules fn at time t and returns a handle that can cancel
// it.
func (k *Kernel) TimerAt(t Time, fn func()) *Timer {
	tm := new(Timer)
	k.ArmTimer(tm, t, fn)
	return tm
}

// ArmTimer is TimerAt into a caller's Timer, which allocates nothing.
func (k *Kernel) ArmTimer(tm *Timer, t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: timer at %d before now %d", t, k.now))
	}
	idx, gen := k.schedule(t, fn, nil)
	*tm = Timer{k: k, idx: idx, gen: gen}
}

// TimerAfter schedules fn d cycles from now, cancellable.
func (k *Kernel) TimerAfter(d Time, fn func()) *Timer { return k.TimerAt(k.now+d, fn) }

// QueueLen returns the number of queued events (diagnostics and tests).
func (k *Kernel) QueueLen() int { return k.queue.len() }

// dispatchOutcome says how a dispatch loop ended for its caller; a proc
// coroutine passes it on to its resumer when it switches back.
type dispatchOutcome int

const (
	// dispatchSelf: the dispatching proc popped its own resume — it
	// keeps the token and continues its body with no switch.
	dispatchSelf dispatchOutcome = iota
	// dispatchHandoff: a proc coroutine passes the token to the proc
	// nextProc names, by way of its resumer.
	dispatchHandoff
	// dispatchStopped: a run-level condition (error, stop predicate,
	// empty queue, deadline, interrupt, callback panic) is recorded in
	// the kernel for Run to consume; it must not be evaluated again.
	dispatchStopped
	// dispatchFinished: a carrier's body returned (see carrier.loop);
	// never returned by dispatch itself.
	dispatchFinished
)

// dispatch is the event loop, runnable by whoever holds the control
// token: the goroutine inside Run (self nil), or a proc yielding in
// WaitUntil/Block (self = that proc). Exactly one of them runs it at a
// time — the token only moves by a coroutine switch — so it may touch
// all kernel state lock-free.
//
// Running the dispatcher on the proc that just yielded is the point:
// pure callbacks between resumes run inline with no switch at all, and
// a proc that pops its own resume just keeps going; only another proc's
// resume sends it back to its resumer. Event pop order is identical to
// a kernel-centric loop, so cycle counts are unchanged.
func (k *Kernel) dispatch(self *Proc) dispatchOutcome {
	for {
		if k.err != nil || k.cbPanic != nil {
			return dispatchStopped
		}
		if k.intrReason.Load() != nil {
			k.interruptHit = true
			return dispatchStopped
		}
		if k.queue.len() == 0 {
			return dispatchStopped
		}
		if k.stop != nil && k.stop() {
			k.stopHit = true
			return dispatchStopped
		}
		ref := k.queue.pop(k)
		s := &k.slots[ref.idx]
		p, fn := s.proc, s.fn
		if ref.at > k.maxTime {
			k.deadlineHit, k.deadlineAt = true, ref.at
			return dispatchStopped
		}
		k.now = ref.at
		k.queue.advance(k.slots, ref.at)
		// Free before firing: a fired timer cannot be stopped
		// retroactively (its handle's generation is now stale), and the
		// callback may immediately reuse the slot for a new event.
		k.freeSlot(ref.idx)
		k.fired++
		if p != nil {
			if p.finished {
				k.cbPanic = fmt.Sprintf("sim: resuming finished proc %q", p.name)
				return dispatchStopped
			}
			if p.chain != nil && k.walk(p) {
				continue
			}
			if p == self {
				return dispatchSelf
			}
			if self != nil {
				k.nextProc = p
				return dispatchHandoff
			}
			if k.resume(p) == dispatchStopped {
				return dispatchStopped
			}
			continue
		}
		if !k.fire(fn) {
			return dispatchStopped
		}
	}
}

// resume switches from the goroutine inside Run to p's carrier, then
// to each proc the yielding dispatchers name in turn; a proc's first
// resume takes a carrier from the pool, and a finished body's carrier
// goes back. It returns dispatchSelf when the caller should dispatch
// on, and dispatchStopped on a run-level condition. Procs never resume
// each other: iter.Pull panics once control comes back round to a
// coroutine waiting inside next.
func (k *Kernel) resume(p *Proc) dispatchOutcome {
	for {
		c := p.carrier
		if c == nil {
			c = getCarrier()
			c.proc, p.carrier, p.started = p, c, true
		}
		k.resumes++
		switch out, _ := c.next(); out {
		case dispatchFinished:
			p.carrier = nil
			putCarrier(c)
			return dispatchSelf
		case dispatchStopped:
			return dispatchStopped
		}
		p, k.nextProc = k.nextProc, nil
	}
}

// walk runs p's chain steps (see Proc.WaitChain) on the caller's stack,
// from a wait that just ended — the dispatcher popped its resume, or it
// was elided — taking every further wait it can in place. It returns
// true once a wait had to be queued (or a step panicked, trapped as in
// fire): p stays parked and the dispatcher moves on through its
// top-of-loop checks, as after p's own yield. False: the chain is over.
func (k *Kernel) walk(p *Proc) (queued bool) {
	defer func() {
		if r := recover(); r != nil {
			k.cbPanic = r
			queued = true
		}
	}()
	for t, ok := p.chain(); ok; t, ok = p.chain() {
		if !p.wait(t, false) {
			p.blockedSince = k.now
			return true
		}
	}
	p.chain = nil
	return false
}

// fire runs a callback, trapping a panic into cbPanic (re-panicked by
// Run) so a buggy callback fails identically whoever held the token.
// Reports whether the callback completed.
func (k *Kernel) fire(fn func()) (ok bool) {
	ok = true
	defer func() {
		if r := recover(); r != nil {
			k.cbPanic = r
			ok = false
		}
	}()
	fn()
	return
}

// Run processes events until the queue is empty or stop returns true.
// stop is checked between events and may be nil. It returns an error if
// the deadline was exceeded or if Procs remain unfinished when the event
// queue drains (a simulated-software deadlock). An error (or a callback
// panic) ends the simulation for good and unwinds the unfinished procs;
// after a stop-predicate return they stay parked for the next Run.
func (k *Kernel) Run(stop func() bool) error {
	k.stop = stop
	k.drained = false
	defer func() { k.stop = nil }()
	aborted := true
	defer func() {
		if aborted {
			k.reap()
		}
	}()
	// dispatch returns only on a run-level condition recorded below, or
	// once the queue is empty.
	k.dispatch(nil)
	if v := k.cbPanic; v != nil {
		k.cbPanic = nil
		panic(v)
	}
	if k.err != nil {
		return k.err
	}
	if k.stopHit {
		k.stopHit = false
		aborted = false
		return nil
	}
	if k.deadlineHit {
		k.deadlineHit = false
		return k.watchdogErr(fmt.Sprintf(
			"deadline %d cycles exceeded (next event at %d)", k.maxTime, k.deadlineAt))
	}
	if k.interruptHit {
		k.interruptHit = false
		reason := *k.intrReason.Swap(nil)
		return k.watchdogErr("interrupted: " + reason)
	}
	for _, p := range k.procs {
		if !p.finished {
			return k.watchdogErr("deadlock: event queue empty with unfinished procs")
		}
	}
	aborted = false
	k.drained = true
	return nil
}

// reap unwinds every parked proc once Run has failed, so an aborted
// simulation's procs do not stay behind pinning the whole machine: it
// marks each one reaped and resumes its carrier, yield turns the mark
// into a procReaped panic that runs the body's deferred calls and ends
// in run's recover, and the carrier goes back to the pool. The fast
// path is off meanwhile, so a wait reached from a deferred call gets to
// yield (which re-raises) instead of advancing the clock.
func (k *Kernel) reap() {
	paranoid := k.paranoid
	k.paranoid = true
	for _, p := range k.procs {
		if c := p.carrier; c != nil && !p.finished {
			p.reaped = true
			c.next()
			p.carrier = nil
			putCarrier(c)
		}
	}
	k.paranoid = paranoid
}

// AddDumpHook registers a diagnostic writer invoked by DumpState after
// the kernel's own report. Higher layers use it to append subsystem
// state (ULI units, work-stealing deques) to watchdog errors.
func (k *Kernel) AddDumpHook(fn func(io.Writer)) {
	k.dumpHooks = append(k.dumpHooks, fn)
}

// DumpState writes a diagnostic snapshot: current cycle, event-queue
// size, per-proc progress (every unfinished proc with the cycle it last
// yielded at), then any registered dump hooks.
func (k *Kernel) DumpState(w io.Writer) {
	finished := 0
	for _, p := range k.procs {
		if p.finished {
			finished++
		}
	}
	fmt.Fprintf(w, "kernel: cycle=%d queued-events=%d procs=%d/%d finished\n",
		k.now, k.QueueLen(), finished, len(k.procs))
	for _, p := range k.procs {
		if p.finished {
			continue
		}
		state := "blocked"
		if !p.started {
			state = "never started"
		}
		fmt.Fprintf(w, "  proc %q: %s since cycle %d\n", p.name, state, p.blockedSince)
	}
	for _, fn := range k.dumpHooks {
		fn(w)
	}
}

// watchdogErr builds the watchdog failure error: the cause followed by
// the full DumpState report, so a deadline or deadlock names the stuck
// procs and whatever subsystem state the machine layer registered.
func (k *Kernel) watchdogErr(cause string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s\n", cause)
	k.DumpState(&b)
	return errors.New(strings.TrimRight(b.String(), "\n"))
}
