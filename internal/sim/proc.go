package sim

import "fmt"

// Proc is a simulated hardware thread context. The body function runs
// on its own coroutine (iter.Pull, created when the proc first runs)
// and only ever executes while it holds the kernel's control token, so
// Proc code may freely mutate shared simulator state. A Proc gives up
// control by calling WaitUntil/Delay (advancing its local time), by
// calling Block, or by returning from its body; in the first two cases
// it runs the dispatcher itself (see Kernel.dispatch).
type Proc struct {
	k    *Kernel
	name string
	// next resumes the coroutine and stop unwinds it (nil until the proc
	// first runs); suspend switches back to whoever called next and
	// reports false once stop was called.
	next     func() (dispatchOutcome, bool)
	stop     func()
	suspend  func(dispatchOutcome) bool
	finished bool
	// reaped: unwound by Kernel.reap (unfinished, so dumps still list it).
	reaped bool
	body   func(*Proc)
	// blockedSince is the cycle at which the proc last yielded; DumpState
	// reports it for unfinished procs.
	blockedSince Time
	// chain is the step of the WaitChain the proc is parked in, if any.
	chain func() (Time, bool)
}

// procReaped is the panic value that unwinds a reaped proc's stack.
type procReaped struct{}

// NewProc registers a simulated thread that begins executing body at
// time start. The body receives the Proc so it can wait on simulated
// time.
func (k *Kernel) NewProc(name string, start Time, body func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, body: body}
	k.procs = append(k.procs, p)
	k.scheduleResume(start, p)
	return p
}

// main is the coroutine: run the body, trapping a crash into the kernel
// error. When it returns, next reports false and the resumer dispatches
// whatever fires next.
func (p *Proc) main(suspend func(dispatchOutcome) bool) {
	p.suspend = suspend
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procReaped); ok {
				return
			}
			p.k.fail(fmt.Errorf("sim: proc %q crashed: %v", p.name, r))
		}
		p.finished = true
	}()
	p.body(p)
}

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// WaitUntil blocks the simulated thread until time t. Waiting for the
// current time (or the past, which is clamped) costs nothing and does
// not yield, preserving atomicity of zero-time sequences.
//
// Fast path: when no live event fires strictly before t, handing
// control to the dispatcher would accomplish nothing — it would pop
// this proc's own resume event and hand control straight back. In
// that case the wait advances the clock in place, skipping the event
// push and the dispatch entirely. The elision is taken only when it is
// observationally invisible:
//
//   - an earlier (or same-time, which fires first by seq order) live
//     event forces the slow path, so no other proc's turn is skipped;
//   - t beyond the watchdog deadline forces the slow path, so Run
//     still reports the deadline through its usual error;
//   - a pending kernel error, pending interrupt, or a true stop
//     predicate forces the slow path, so Run performs exactly the
//     checks it would have anyway.
//
// KernelParanoid disables the fast path entirely; equivalence tests
// run both modes and require bit-identical cycle counts.
func (p *Proc) WaitUntil(t Time) { p.wait(t, true) }

// wait is WaitUntil when yield is set. When it is not, a wait that has
// to go through the queue is only queued, and reported unfinished: the
// caller will yield, or is a dispatcher acting for p (Kernel.walk).
func (p *Proc) wait(t Time, yield bool) (done bool) {
	k := p.k
	if t <= k.now {
		return true
	}
	if !k.paranoid && t <= k.maxTime && k.err == nil &&
		k.intrReason.Load() == nil && (k.stop == nil || !k.stop()) {
		if at, ok := k.queue.peek(); !ok || at > t {
			k.now = t
			k.fastWaits++
			return true
		}
	}
	k.scheduleResume(t, p)
	if yield {
		p.yield()
	}
	return yield
}

// WaitChain is WaitUntil(t) followed by as many further waits as step
// asks for: each time a wait ends, step returns the time the next one
// ends, or ok == false to end the chain. Under KernelParanoid it is the
// loop below; otherwise it behaves exactly like it, except that once a
// wait has gone through the queue the later steps run on the stack of
// whoever dispatches the proc's resume (Kernel.walk), and the proc is
// switched to only when the chain ends. Every wait still schedules the
// event the loop would, so only Kernel.Resumes can tell the two apart.
// A step must not wait, block, or care whose stack it is on; a time at
// or before now is a zero-length wait.
func (p *Proc) WaitChain(t Time, step func() (next Time, ok bool)) {
	k := p.k
	if k.paranoid {
		for ok := true; ok; t, ok = step() {
			p.WaitUntil(t)
		}
		return
	}
	p.chain = step
	if p.wait(t, false) && !k.walk(p) {
		return
	}
	p.yield()
}

// Delay blocks the simulated thread for d cycles.
func (p *Proc) Delay(d Time) { p.WaitUntil(p.k.now + d) }

// Block parks the proc indefinitely; something else must call Unblock.
// Used for interrupt-style wakeups (e.g. a ULI response arriving).
func (p *Proc) Block() { p.yield() }

// Unblock schedules the proc to resume at time t. Must only be called
// for a proc parked with Block.
func (p *Proc) Unblock(t Time) {
	p.k.scheduleResume(t, p)
}

// yield passes the control token on by running the dispatcher on this
// coroutine. If the dispatcher pops this proc's own resume event it
// returns immediately — no switch at all; otherwise the proc switches
// back to its resumer, which delivers the token, and continues when a
// later resumer calls next. suspend reporting false means the kernel is
// reaping the proc: unwind the body to main's recover. Waits reached
// from its deferred calls land here again and re-raise.
func (p *Proc) yield() {
	if p.reaped {
		panic(procReaped{})
	}
	p.blockedSince = p.k.now
	out := p.k.dispatch(p)
	if out == dispatchSelf {
		return
	}
	if !p.suspend(out) {
		panic(procReaped{})
	}
}
