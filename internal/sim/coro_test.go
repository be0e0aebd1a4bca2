package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// kernelMode is one way to run a kernel; the coroutine-switch tests run
// on both. A serial kernel takes the WaitUntil fast path and walks wait
// chains on the dispatcher's stack; a paranoid one (see KernelParanoid)
// queues every wait and runs chains as plain loops on the proc.
type kernelMode struct {
	name     string
	paranoid bool
}

var kernelModes = []kernelMode{{"serial", false}, {"paranoid", true}}

func (m kernelMode) kernel() *Kernel {
	k := NewKernel()
	k.SetParanoid(m.paranoid)
	return k
}

func forEachKernelMode(t *testing.T, f func(t *testing.T, m kernelMode)) {
	for _, m := range kernelModes {
		t.Run(m.name, func(t *testing.T) { f(t, m) })
	}
}

// TestHandoffChainMidChainFinish: a's dispatcher pops b's resume, b's
// pops c's, c's pops b's again, and b's body returns in the middle of
// that chain — the resumer must pick the dispatch loop up where the
// finished proc left it and carry on to c and back to a. The paranoid
// kernel queues the one wait the serial kernel elides.
func TestHandoffChainMidChainFinish(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		k := m.kernel()
		var log []string
		note := func(who string, p *Proc) { log = append(log, fmt.Sprintf("%s@%d", who, p.Now())) }
		k.NewProc("a", 0, func(p *Proc) {
			note("a0", p)
			p.Delay(5)
			note("a1", p)
			p.Delay(5)
			note("a2", p)
		})
		k.NewProc("b", 1, func(p *Proc) {
			note("b0", p)
			p.Delay(2)
			note("b1", p)
		})
		k.NewProc("c", 2, func(p *Proc) {
			note("c0", p)
			p.Delay(2)
			note("c1", p)
			p.Delay(10)
			note("c2", p)
		})
		if err := k.Run(nil); err != nil {
			t.Fatal(err)
		}
		want := "[a0@0 b0@1 c0@2 b1@3 c1@4 a1@5 a2@10 c2@14]"
		if got := fmt.Sprint(log); got != want {
			t.Fatalf("log %v, want %v", got, want)
		}
		wantFired, wantFast := uint64(7), uint64(1)
		if m.paranoid {
			wantFired, wantFast = 8, 0
		}
		if k.Fired() != wantFired || k.FastWaits() != wantFast {
			t.Fatalf("fired=%d fastwaits=%d, want %d/%d", k.Fired(), k.FastWaits(), wantFired, wantFast)
		}
	})
}

// TestCallbackPanicOnProcDispatcher: a callback that panics while a
// yielding proc is the dispatcher resurfaces out of Run with its
// original value.
func TestCallbackPanicOnProcDispatcher(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		k := m.kernel()
		k.NewProc("a", 0, func(p *Proc) { p.Delay(10) })
		k.At(5, func() { panic("boom under a proc") })
		defer func() {
			if r := recover(); r != "boom under a proc" {
				t.Fatalf("Run panicked with %v, want the callback's value", r)
			}
		}()
		k.Run(nil)
		t.Fatal("Run returned")
	})
}

// TestProcCrashWhileProcDispatching: b crashes when a's dispatcher pops
// b's first resume. Run reports the crash, and a — parked in the middle
// of its body — is unwound: its deferred call runs, the rest does not.
func TestProcCrashWhileProcDispatching(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		k := m.kernel()
		unwound, survived := false, false
		k.NewProc("a", 0, func(p *Proc) {
			defer func() { unwound = true }()
			p.Delay(10)
			survived = true
		})
		k.NewProc("b", 5, func(p *Proc) { panic("kaput") })
		err := k.Run(nil)
		if err == nil || !strings.Contains(err.Error(), `proc "b" crashed: kaput`) {
			t.Fatalf("err = %v, want b's crash", err)
		}
		if !unwound || survived {
			t.Fatalf("unwound=%v survived=%v, want a unwound at its wait", unwound, survived)
		}
	})
}

// TestStopOnProcCoroutineThenRerun: the stop predicate turns true while
// a proc is the dispatcher; Run returns with every proc still parked,
// and a second Run resumes them to the same end as an uninterrupted run.
func TestStopOnProcCoroutineThenRerun(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		run := func(stopAt int) (string, Time) {
			k := m.kernel()
			var log []string
			for i, name := range []string{"a", "b"} {
				k.NewProc(name, Time(i), func(p *Proc) {
					for j := 0; j < 4; j++ {
						log = append(log, fmt.Sprintf("%s%d@%d", p.name, j, p.Now()))
						p.Delay(3)
					}
				})
			}
			if stopAt > 0 {
				if err := k.Run(func() bool { return len(log) >= stopAt }); err != nil {
					t.Fatal(err)
				}
				if len(log) != stopAt {
					t.Fatalf("stopped after %d steps, want %d", len(log), stopAt)
				}
			}
			if err := k.Run(nil); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(log), k.Now()
		}
		wantLog, wantEnd := run(0)
		for stopAt := 1; stopAt < 8; stopAt++ {
			if log, end := run(stopAt); log != wantLog || end != wantEnd {
				t.Fatalf("stop at %d: log %v end %d, uninterrupted %v end %d",
					stopAt, log, end, wantLog, wantEnd)
			}
		}
	})
}

// TestDeadlineOnProcCoroutine: the first event past the deadline is
// popped by a yielding proc, not by the kernel goroutine; the error
// still names that event's cycle and lists both parked procs.
func TestDeadlineOnProcCoroutine(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		k := m.kernel()
		k.SetDeadline(100)
		for _, d := range []Time{10, 7} {
			k.NewProc(fmt.Sprintf("every%d", d), 0, func(p *Proc) {
				for {
					p.Delay(d)
				}
			})
		}
		err := k.Run(nil)
		if err == nil {
			t.Fatal("expected deadline error")
		}
		// every10 yields at 100 with its resume at 110 queued; the event
		// it pops is every7's resume at 105.
		for _, want := range []string{
			"deadline 100 cycles exceeded (next event at 105)",
			`proc "every10": blocked since cycle 100`,
			`proc "every7": blocked since cycle 98`,
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("deadline error missing %q:\n%v", want, err)
			}
		}
	})
}

// TestReapReRaisesInDeferredWaits: while an aborted run unwinds a proc,
// every deferred call runs, and a wait reached from one of them unwinds
// further instead of parking the proc again or moving the clock.
func TestReapReRaisesInDeferredWaits(t *testing.T) {
	k := NewKernel()
	var trail []string
	k.NewProc("p", 0, func(p *Proc) {
		defer func() { trail = append(trail, "outer") }()
		defer func() {
			trail = append(trail, "block")
			p.Block()
			trail = append(trail, "after block")
		}()
		defer func() {
			trail = append(trail, "delay")
			p.Delay(5)
			trail = append(trail, "after delay")
		}()
		p.Block()
		trail = append(trail, "resumed")
	})
	if err := k.Run(nil); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if got := fmt.Sprint(trail); got != "[delay block outer]" {
		t.Fatalf("unwind trail %v, want [delay block outer]", got)
	}
	if k.Now() != 0 {
		t.Fatalf("unwinding moved the clock to %d", k.Now())
	}
}

// TestAbortedRunsLeakNothing: every way a Run can fail for good unwinds
// its parked procs, so neither their goroutines nor what their stacks
// reference outlive the kernel. Each proc below pins 128 KiB of heap
// (too big for its stack); 20 runs of 16 procs would leave 40 MiB and
// 320 goroutines behind.
func TestAbortedRunsLeakNothing(t *testing.T) {
	aborts := map[string]func(k *Kernel){
		"deadline":  func(k *Kernel) { k.SetDeadline(50) },
		"interrupt": func(k *Kernel) { k.At(50, func() { k.Interrupt("enough") }) },
		"crash":     func(k *Kernel) { k.NewProc("bad", 50, func(*Proc) { panic("kaput") }) },
		"deadlock":  func(k *Kernel) { k.NewProc("stuck", 50, func(p *Proc) { p.Block() }) },
		"callback panic": func(k *Kernel) {
			k.At(50, func() { panic("bug") })
		},
	}
	for name, abort := range aborts {
		t.Run(name, func(t *testing.T) {
			forEachKernelMode(t, func(t *testing.T, m kernelMode) {
				abortedRun := func() {
					k := m.kernel()
					for i := 0; i < 16; i++ {
						k.NewProc(fmt.Sprint("p", i), 0, func(p *Proc) {
							ballast := make([]byte, 128<<10)
							for j := 0; name != "deadlock" || j < 10; j++ {
								p.Delay(Time(1 + j%3))
								ballast[j%len(ballast)]++
							}
							p.Block()
						})
					}
					abort(k)
					defer func() {
						if r := recover(); r != nil && name != "callback panic" {
							panic(r)
						}
					}()
					if err := k.Run(nil); err == nil {
						t.Fatal("run was not aborted")
					}
				}
				abortedRun() // warm up whatever the runtime allocates once
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				goroutines := runtime.NumGoroutine()
				for i := 0; i < 20; i++ {
					abortedRun()
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				if n := runtime.NumGoroutine(); n != goroutines {
					t.Errorf("%d goroutines after 20 aborted runs, %d before", n, goroutines)
				}
				if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 8<<20 {
					t.Errorf("live heap grew %d KiB over 20 aborted runs", grown>>10)
				}
			})
		})
	}
}
