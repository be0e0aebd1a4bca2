package sim

import "testing"

func TestTimerFires(t *testing.T) {
	k := NewKernel()
	var firedAt Time
	tm := k.TimerAt(50, func() { firedAt = k.Now() })
	if !tm.Active() {
		t.Fatal("armed timer not active")
	}
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if firedAt != 50 {
		t.Fatalf("fired at %d, want 50", firedAt)
	}
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported success")
	}
}

func TestTimerStopPreventsFire(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.TimerAt(50, func() { fired = true })
	k.At(10, func() {
		if !tm.Stop() {
			t.Error("in-time Stop reported failure")
		}
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported success")
	}
}

// TestStoppedTimerLeavesNoTrace: a cancelled timer must not advance
// simulated time — its queue entry is skipped without touching the
// clock, so arming-and-cancelling is invisible in cycle counts.
func TestStoppedTimerLeavesNoTrace(t *testing.T) {
	k := NewKernel()
	tm := k.TimerAt(1_000_000, func() {})
	k.At(10, func() { tm.Stop() })
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 {
		t.Fatalf("clock at %d after run, want 10 (cancelled timer advanced time)", k.Now())
	}
}

// TestStoppedTimerPastDeadline: a cancelled timer scheduled beyond the
// watchdog deadline must not trip it.
func TestStoppedTimerPastDeadline(t *testing.T) {
	k := NewKernel()
	k.SetDeadline(100)
	tm := k.TimerAt(500, func() {})
	k.At(10, func() { tm.Stop() })
	if err := k.Run(nil); err != nil {
		t.Fatalf("cancelled past-deadline timer tripped the watchdog: %v", err)
	}
}

// TestTombstoneCompaction: arm-and-cancel churn of timers beyond the
// wheel must not grow the queue. Stop takes a far timer out of the
// overflow heap at once, so 10k cancelled timers leave nothing behind.
func TestTombstoneCompaction(t *testing.T) {
	k := NewKernel()
	maxLen := 0
	k.NewProc("churner", 0, func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			tm := k.TimerAfter(1_000_000, func() { t.Error("cancelled timer fired") })
			if l := k.QueueLen(); l > maxLen {
				maxLen = l
			}
			if !tm.Stop() {
				t.Error("in-time Stop failed")
			}
			p.Delay(1)
		}
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	// The armed timer and at most the churner's own resume.
	if maxLen > 2 {
		t.Fatalf("queue grew to %d entries under arm/cancel churn, want <= 2", maxLen)
	}
	if k.Now() != 10_000 {
		t.Fatalf("clock at %d, want 10000 (cancelled timers advanced time)", k.Now())
	}
}

// TestTimerStaleHandleAfterReuse: a timer handle whose slot has fired
// and been recycled for a new event must go stale — Stop through it
// returns false and must not cancel the slot's new occupant.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	k := NewKernel()
	firstFired, secondFired := false, false
	tm1 := k.TimerAt(10, func() { firstFired = true })
	var tm2 *Timer
	k.At(20, func() {
		// tm1 fired at 10; its slot is free and this re-arms it.
		tm2 = k.TimerAt(30, func() { secondFired = true })
		if tm1.Stop() {
			t.Error("stale handle Stop reported success")
		}
		if tm1.Active() {
			t.Error("stale handle reports active")
		}
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !firstFired || !secondFired {
		t.Fatalf("fired = %v,%v, want both (stale Stop cancelled a stranger)",
			firstFired, secondFired)
	}
	if tm2.Active() {
		t.Error("fired timer still active")
	}
}

func TestTimerAfter(t *testing.T) {
	k := NewKernel()
	var firedAt Time
	k.At(30, func() {
		k.TimerAfter(20, func() { firedAt = k.Now() })
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if firedAt != 50 {
		t.Fatalf("fired at %d, want 50", firedAt)
	}
}
