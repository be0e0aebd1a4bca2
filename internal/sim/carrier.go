package sim

import (
	"iter"
	"sync"
)

// carrier is the coroutine a proc body runs on: an iter.Pull coroutine
// that runs one body after another. Its resumer (Kernel.resume) hands it
// a proc on the proc's first resume; when that body returns, the
// carrier reports dispatchFinished and waits, parked, for the next proc.
// Carriers outlive kernels in a process-wide pool, so a proc starts on
// a stack some earlier proc already grew instead of growing a fresh one
// while the dispatcher walks other procs' chains on it.
type carrier struct {
	next  func() (dispatchOutcome, bool)
	stop  func()
	yield func(dispatchOutcome) bool
	// proc is the proc whose body runs on the carrier; nil while pooled,
	// so the pool pins no finished proc and no machine.
	proc *Proc
}

// carrierPoolCap bounds the idle carriers a process keeps: every proc
// of the paper's 64-core machine. A carrier put back past it is
// stopped, and its goroutine exits. Idle carriers are not free: the
// collector scans each one's stack every cycle, a few microseconds
// apiece, so the cap stays at what one machine reuses.
const carrierPoolCap = 64

// carriers is the pool of idle carriers, shared by every kernel on any
// goroutine.
var carriers struct {
	sync.Mutex
	free []*carrier
}

// getCarrier takes an idle carrier off the pool, or makes one.
func getCarrier() *carrier {
	carriers.Lock()
	if n := len(carriers.free); n > 0 {
		c := carriers.free[n-1]
		carriers.free[n-1] = nil
		carriers.free = carriers.free[:n-1]
		carriers.Unlock()
		return c
	}
	carriers.Unlock()
	c := new(carrier)
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// putCarrier returns a carrier whose body has ended to the pool, or
// stops it once the pool is full.
func putCarrier(c *carrier) {
	carriers.Lock()
	if len(carriers.free) < carrierPoolCap {
		carriers.free = append(carriers.free, c)
		carriers.Unlock()
		return
	}
	carriers.Unlock()
	c.stop()
}

// loop is the coroutine: run the body of whichever proc the resumer
// installed, then report it finished. yield reports false only once the
// pool stops the carrier.
func (c *carrier) loop(yield func(dispatchOutcome) bool) {
	c.yield = yield
	for {
		c.proc.run()
		c.proc = nil
		if !yield(dispatchFinished) {
			return
		}
	}
}
