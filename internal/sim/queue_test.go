package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// queueProgram interprets prog as a script for one kernel — a lone
// driver proc that arms timers at every kind of horizon (inside the
// wheel, on its edge, far into the overflow heap, tied with the last
// one), stops armed ones, and waits, so the clock moves both by pops
// and by fast-path advances that pop nothing — and checks the kernel
// against a model: the events that were not stopped must fire exactly
// once, at their own time, in a stable sort by time of their creation
// order. Events may arm a child or stop a victim when they fire.
//
// Failures are reported with Errorf: callbacks run on proc coroutines.
func queueProgram(t testing.TB, prog []byte) {
	type event struct {
		at      Time
		tm      *Timer
		stopped bool
		fired   bool
	}
	k := NewKernel()
	var (
		events []*event
		order  []int
		lastAt Time
		pc     int
	)
	next := func() int {
		if pc >= len(prog) {
			return 0
		}
		pc++
		return int(prog[pc-1])
	}
	horizon := func() Time {
		class, v := next(), Time(next())<<8|Time(next())
		switch class % 8 {
		case 0:
			return 0
		case 1:
			return v % 4
		case 2:
			return v % 200
		case 3:
			return wheelSize - 2 + v%5
		case 4:
			return v % (3 * wheelSize)
		case 5:
			return v * 5 // up to 40 wheels out
		case 6:
			if lastAt > k.Now() {
				return lastAt - k.Now() // tie with the previous event
			}
			return 0
		}
		return v % 64
	}
	stop := func(v int) {
		var armed []*event
		for _, e := range events {
			if !e.fired && !e.stopped {
				armed = append(armed, e)
			}
		}
		if len(armed) > 0 {
			e := armed[v%len(armed)]
			if !e.tm.Active() || !e.tm.Stop() {
				t.Errorf("stop of armed event at %d failed", e.at)
			}
			e.stopped = true
		}
		if e := events[v%len(events)]; (e.fired || e.stopped) && (e.tm.Active() || e.tm.Stop()) {
			t.Errorf("event at %d (fired=%v stopped=%v) still stoppable", e.at, e.fired, e.stopped)
		}
	}
	// What an event does when it fires (flags, child, victim) is drawn
	// by the driver, so the script reads the same whatever order the
	// kernel fires in.
	var arm func(delta Time, flags int, child Time, victim int)
	arm = func(delta Time, flags int, child Time, victim int) {
		e, id := &event{at: k.Now() + delta}, len(events)
		events = append(events, e)
		lastAt = e.at
		e.tm = k.TimerAt(e.at, func() {
			if k.Now() != e.at || e.fired || e.stopped {
				t.Errorf("event %d for %d fired at %d (fired=%v stopped=%v)", id, e.at, k.Now(), e.fired, e.stopped)
			}
			e.fired = true
			order = append(order, id)
			switch flags % 4 {
			case 1:
				arm(child, 0, 0, 0)
			case 2:
				stop(victim)
			}
		})
	}
	k.NewProc("driver", 0, func(p *Proc) {
		for pc < len(prog) {
			switch op := next(); op % 8 {
			case 0, 1, 2, 3:
				arm(horizon(), op>>3, horizon(), next())
			case 4:
				if len(events) > 0 {
					stop(next())
				}
			case 5:
				p.Delay(1 + Time(op>>3)%3)
			default:
				p.Delay(horizon())
			}
		}
	})
	if err := k.Run(nil); err != nil {
		t.Errorf("run: %v", err)
		return
	}
	var want []int
	for id, e := range events {
		if !e.stopped {
			want = append(want, id)
		}
	}
	slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(events[a].at, events[b].at) })
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			got := -1
			if i < len(order) {
				got = order[i]
			}
			t.Errorf("fire %d of %d: event %d, want event %d (at %d)", i, len(want), got, want[i], events[want[i]].at)
			return
		}
	}
	if len(order) != len(want) || k.QueueLen() != 0 {
		t.Errorf("%d events fired, want %d; %d entries left queued",
			len(order), len(want), k.QueueLen())
	}
}

// TestQueueFireOrder runs seeded random programs through queueProgram.
func TestQueueFireOrder(t *testing.T) {
	for seed := int64(1); seed <= 40 && !t.Failed(); seed++ {
		prog := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(prog)
		queueProgram(t, prog)
	}
}

// FuzzEventQueue feeds queueProgram arbitrary scripts. The corpus under
// testdata/fuzz holds the shapes that matter: ties, the wheel's edge,
// migration out of the overflow heap, stops on both sides of it.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<13 {
			prog = prog[:1<<13]
		}
		queueProgram(t, prog)
	})
}

// TestQueueMigratesBeforeDirectPush pins the cursor rule down by hand:
// b is queued a full wheel ahead (overflow), the window then advances
// onto it, and c is pushed straight into b's bucket. b has the lower
// seq and must fire first; without the migration in advance it would
// still be in the heap when c is linked.
func TestQueueMigratesBeforeDirectPush(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	k.At(wheelSize+10, note("b"))
	k.At(20, func() { k.At(wheelSize+10, note("c")) })
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "c" {
		t.Fatalf("order %v, want [b c]", order)
	}
}

// TestTimerStopInWheelIsImmediate: Stop takes a timer off the queue at
// once, whether it is inside the window (an unlink) or beyond it (a
// removal from the overflow heap).
func TestTimerStopInWheelIsImmediate(t *testing.T) {
	k := NewKernel()
	near, far := k.TimerAt(100, func() {}), k.TimerAt(10*wheelSize, func() {})
	k.At(50, func() {})
	if !near.Stop() || k.QueueLen() != 2 {
		t.Fatalf("after near stop: %d queued, want 2", k.QueueLen())
	}
	if !far.Stop() || k.QueueLen() != 1 {
		t.Fatalf("after far stop: %d queued, want 1", k.QueueLen())
	}
	if near.Stop() || far.Stop() || near.Active() || far.Active() {
		t.Fatal("stopped timers still stoppable")
	}
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 50 || k.QueueLen() != 0 {
		t.Fatalf("after run: now %d, %d queued", k.Now(), k.QueueLen())
	}
}
