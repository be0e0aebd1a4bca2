package sim

import (
	"fmt"
	"testing"
)

// traceRun drives a deliberately twisty multi-proc scenario (timed
// waits with and without competing events, block/unblock wakeups,
// timers armed and cancelled, a nested zero-length wait) and returns
// the observation log. Fast-path and paranoid kernels must produce
// identical logs and final clocks.
func traceRun(t *testing.T, paranoid bool) ([]string, Time) {
	t.Helper()
	k := NewKernel()
	k.SetParanoid(paranoid)
	var log []string
	note := func(who string, p *Proc) {
		log = append(log, fmt.Sprintf("%s@%d", who, p.Now()))
	}
	var sleeper *Proc
	sleeper = k.NewProc("sleeper", 0, func(p *Proc) {
		note("s0", p)
		p.Block()
		note("s1", p)
		p.Delay(5)
		note("s2", p)
	})
	k.NewProc("worker", 0, func(p *Proc) {
		note("w0", p)
		p.Delay(3) // competes with waker's events: slow path
		note("w1", p)
		tm := k.TimerAfter(1000, func() { t.Error("cancelled timer fired") })
		p.Delay(10)
		tm.Stop()
		note("w2", p)
		p.Delay(0) // zero wait: must not yield
		note("w3", p)
		p.Delay(500) // long tail with empty queue: fast path
		note("w4", p)
	})
	k.NewProc("waker", 1, func(p *Proc) {
		note("k0", p)
		p.Delay(6)
		sleeper.Unblock(p.Now() + 2)
		note("k1", p)
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	return log, k.Now()
}

// TestWaitFastPathEquivalence proves the WaitUntil fast path is
// observationally invisible: same event interleaving, same
// per-observation clocks, same final time as the paranoid kernel.
func TestWaitFastPathEquivalence(t *testing.T) {
	fastLog, fastEnd := traceRun(t, false)
	slowLog, slowEnd := traceRun(t, true)
	if fastEnd != slowEnd {
		t.Fatalf("final clock: fast=%d paranoid=%d", fastEnd, slowEnd)
	}
	if len(fastLog) != len(slowLog) {
		t.Fatalf("log lengths differ: fast=%v paranoid=%v", fastLog, slowLog)
	}
	for i := range fastLog {
		if fastLog[i] != slowLog[i] {
			t.Fatalf("log diverges at %d: fast=%v paranoid=%v", i, fastLog, slowLog)
		}
	}
}

// TestFastPathTakesEffect guards against the fast path silently
// regressing into always-slow: a lone proc's timed waits over an empty
// queue must elide their events.
func TestFastPathTakesEffect(t *testing.T) {
	k := NewKernel()
	k.NewProc("p", 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Delay(3)
		}
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if k.FastWaits() < 90 {
		t.Fatalf("FastWaits = %d, want ~100 (fast path not taken)", k.FastWaits())
	}
	if k.Now() != 300 {
		t.Fatalf("final time = %d, want 300", k.Now())
	}
}

// TestFastPathHonoursDeadline: a wait past the watchdog deadline must
// fall back to the slow path so Run reports the deadline error, even
// though the queue is otherwise empty.
func TestFastPathHonoursDeadline(t *testing.T) {
	k := NewKernel()
	k.SetDeadline(100)
	k.NewProc("runaway", 0, func(p *Proc) {
		for {
			p.Delay(30)
		}
	})
	err := k.Run(nil)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if got := k.Now(); got > 100 {
		t.Fatalf("clock ran to %d, past the deadline 100", got)
	}
}

// TestFastPathHonoursStop: Run's stop predicate must be able to halt a
// proc whose waits would otherwise all take the fast path.
func TestFastPathHonoursStop(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.NewProc("stepper", 0, func(p *Proc) {
		for {
			steps++
			p.Delay(10)
		}
	})
	if err := k.Run(func() bool { return steps >= 5 }); err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("ran %d steps, want 5", steps)
	}
}

// TestFastPathSameTimeEventFirst: an event queued at exactly the
// wait's target time was scheduled earlier, so it must fire before the
// waiter resumes — the fast path may not leapfrog it.
func TestFastPathSameTimeEventFirst(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(10, func() { order = append(order, "event") })
	k.NewProc("p", 0, func(p *Proc) {
		p.WaitUntil(10)
		order = append(order, "proc")
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v, want [event proc]", order)
	}
}

// TestProcCrashStopsKernelFast: a proc panic must still surface as a
// Run error when other procs' waits ride the fast path.
func TestProcCrashStopsKernelFast(t *testing.T) {
	k := NewKernel()
	k.NewProc("bystander", 0, func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Delay(7)
		}
	})
	k.NewProc("crasher", 100, func(p *Proc) {
		panic("simulated bug")
	})
	if err := k.Run(nil); err == nil {
		t.Fatal("expected crash error")
	}
}
