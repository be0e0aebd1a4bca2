package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(10, func() { got = append(got, 1) })
	k.At(5, func() { got = append(got, 0) })
	k.At(10, func() { got = append(got, 2) }) // same time: scheduled later fires later
	k.At(20, func() { got = append(got, 3) })
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("final time = %d, want 20", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(1, func() {
		k.After(4, func() {
			if k.Now() != 5 {
				t.Errorf("nested event at %d, want 5", k.Now())
			}
			fired++
		})
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("nested event did not fire")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcDelayAdvancesTime(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.NewProc("p", 0, func(p *Proc) {
		times = append(times, p.Now())
		p.Delay(7)
		times = append(times, p.Now())
		p.Delay(3)
		times = append(times, p.Now())
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 7, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.NewProc("a", 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				p.Delay(10)
			}
		})
		k.NewProc("b", 5, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, "b")
				p.Delay(10)
			}
		})
		if err := k.Run(nil); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
	// a at 0,10,20; b at 5,15,25 -> strict alternation starting with a.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
}

func TestProcZeroDelayDoesNotYield(t *testing.T) {
	k := NewKernel()
	order := []string{}
	k.NewProc("a", 0, func(p *Proc) {
		order = append(order, "a1")
		p.Delay(0) // must not give another proc a chance to run
		order = append(order, "a2")
	})
	k.NewProc("b", 0, func(p *Proc) {
		order = append(order, "b")
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a1" || order[1] != "a2" || order[2] != "b" {
		t.Fatalf("zero delay yielded control: %v", order)
	}
}

func TestBlockUnblock(t *testing.T) {
	k := NewKernel()
	var woke Time
	var p *Proc
	p = k.NewProc("sleeper", 0, func(pp *Proc) {
		pp.Block()
		woke = pp.Now()
	})
	k.At(42, func() { p.Unblock(42) })
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if woke != 42 {
		t.Fatalf("woke at %d, want 42", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	k.NewProc("stuck", 0, func(p *Proc) { p.Block() })
	if err := k.Run(nil); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDeadline(t *testing.T) {
	k := NewKernel()
	k.SetDeadline(100)
	k.NewProc("loop", 0, func(p *Proc) {
		for {
			p.Delay(10)
		}
	})
	if err := k.Run(nil); err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestStopPredicate(t *testing.T) {
	k := NewKernel()
	n := 0
	for i := Time(1); i <= 100; i++ {
		k.At(i, func() { n++ })
	}
	err := k.Run(func() bool { return n >= 10 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("processed %d events, want 10", n)
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	// Back-to-back requests at the same instant serialize.
	d1 := r.Acquire(100, 10)
	d2 := r.Acquire(100, 10)
	d3 := r.Acquire(105, 10)
	if d1 != 110 || d2 != 120 || d3 != 130 {
		t.Fatalf("completions = %d,%d,%d; want 110,120,130", d1, d2, d3)
	}
	// A request after the resource drains sees no queueing.
	d4 := r.Acquire(500, 10)
	if d4 != 510 {
		t.Fatalf("idle completion = %d, want 510", d4)
	}
	if r.Busy != 40 || r.Uses != 4 {
		t.Fatalf("busy=%d uses=%d, want 40,4", r.Busy, r.Uses)
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	r.Acquire(0, 25)
	if got := r.Utilization(100); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("utilization over zero elapsed = %v, want 0", got)
	}
}

// Property: resource completion times are monotone in arrival order and
// never overlap (each service occupies disjoint [done-service, done]).
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		var r Resource
		now := Time(0)
		prevDone := Time(0)
		for i, a := range arrivals {
			now += Time(a % 64)
			svc := Time(1)
			if i < len(services) {
				svc = Time(services[i]%16) + 1
			}
			done := r.Acquire(now, svc)
			if done < now+svc {
				return false // finished faster than service time
			}
			if done-svc < prevDone {
				return false // overlapped previous occupancy
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(123)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

// TestRunAgainAfterDrain: a Run that drains the queue leaves the kernel
// usable; events scheduled afterwards fire in the next Run.
func TestRunAgainAfterDrain(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(5, func() { fired++ })
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	k.At(k.Now()+5, func() { fired++ })
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || k.Now() != 10 {
		t.Fatalf("fired=%d now=%d after two Runs, want 2/10", fired, k.Now())
	}
}
