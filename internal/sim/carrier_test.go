package sim

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// pooledCarriers returns the number of idle carriers in the pool.
func pooledCarriers() int {
	carriers.Lock()
	defer carriers.Unlock()
	return len(carriers.free)
}

// procsKernel runs a kernel of n procs that all start at cycle 0 and
// take a few waits of different lengths, so every one is parked
// mid-body before the first returns. It returns the final cycle.
func procsKernel(m kernelMode, n int) (Time, error) {
	k := m.kernel()
	for i := 0; i < n; i++ {
		k.NewProc(fmt.Sprint("p", i), 0, func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Delay(Time(1 + (i+j)%5))
			}
		})
	}
	err := k.Run(nil)
	return k.Now(), err
}

// runProcs is procsKernel on the test's goroutine.
func runProcs(t testing.TB, m kernelMode, n int) Time {
	t.Helper()
	end, err := procsKernel(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestCarriersKeepGoroutinesFlat: once one kernel has filled the pool,
// later kernels of as many procs start every proc on a pooled carrier.
// Goroutine counts in these tests are checked for growth only: the
// goroutine of a subtest that just ended may still be exiting when a
// count is first read, so the count can only fall by itself.
func TestCarriersKeepGoroutinesFlat(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		runProcs(t, m, 64)
		goroutines, pooled := runtime.NumGoroutine(), pooledCarriers()
		if pooled < 64 {
			t.Fatalf("%d carriers pooled after a kernel of 64 procs", pooled)
		}
		for i := 0; i < 10; i++ {
			runProcs(t, m, 64)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%d goroutines after 10 kernels of 64 procs, %d before", n, goroutines)
		}
		if n := pooledCarriers(); n != pooled {
			t.Errorf("%d carriers pooled after 10 kernels, %d before", n, pooled)
		}
	})
}

// TestCarriersSharedAcrossGoroutines: two goroutines run kernels at once
// on carriers from the one pool (a carrier one of them returns may serve
// the other next), and every kernel ends where a lone one does.
func TestCarriersSharedAcrossGoroutines(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		want := runProcs(t, m, 16)
		goroutines, pooled := runtime.NumGoroutine(), pooledCarriers()
		var wg sync.WaitGroup
		ends := make(chan Time, 2*20)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					end, err := procsKernel(m, 16)
					if err != nil {
						t.Error(err)
					}
					ends <- end
				}
			}()
		}
		wg.Wait()
		close(ends)
		for end := range ends {
			if end != want {
				t.Fatalf("a kernel ended at cycle %d, a lone one at %d", end, want)
			}
		}
		// The two goroutines exit after wg.Done; the tests after this one
		// count goroutines, so wait until only the carriers they added
		// to the pool remain.
		settled := goroutines + pooledCarriers() - pooled
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > settled; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, want %d once the two runners exit", runtime.NumGoroutine(), settled)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestReapedCarriersServeNextKernel: after every kind of abort the
// reaped procs' carriers are back in the pool, and the next kernel
// starts its procs on them without a new goroutine.
func TestReapedCarriersServeNextKernel(t *testing.T) {
	// Each abort cuts short a kernel whose procs are parked mid-body at
	// cycle 50.
	aborts := map[string]func(k *Kernel){
		"deadline":       func(k *Kernel) { k.SetDeadline(50) },
		"interrupt":      func(k *Kernel) { k.At(50, func() { k.Interrupt("enough") }) },
		"crash":          func(k *Kernel) { k.NewProc("bad", 50, func(*Proc) { panic("kaput") }) },
		"deadlock":       func(k *Kernel) { k.NewProc("stuck", 50, func(p *Proc) { p.WaitUntil(Forever) }) },
		"callback panic": func(k *Kernel) { k.At(50, func() { panic("bug") }) },
	}
	for name, abort := range aborts {
		t.Run(name, func(t *testing.T) {
			forEachKernelMode(t, func(t *testing.T, m kernelMode) {
				aborted := func() {
					k := m.kernel()
					for i := 0; i < 16; i++ {
						k.NewProc(fmt.Sprint("p", i), 0, func(p *Proc) {
							for j := 0; name != "deadlock" || j < 10; j++ {
								p.Delay(Time(1 + (i+j)%3))
							}
							p.WaitUntil(Forever)
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
				aborted()
				runProcs(t, m, 16)
				goroutines, pooled := runtime.NumGoroutine(), pooledCarriers()
				for i := 0; i < 5; i++ {
					aborted()
					if n := pooledCarriers(); n != pooled {
						t.Fatalf("%d carriers pooled after an aborted run, %d before", n, pooled)
					}
					runProcs(t, m, 16)
				}
				if n := runtime.NumGoroutine(); n > goroutines {
					t.Errorf("%d goroutines after 5 aborted and 5 whole runs, %d before", n, goroutines)
				}
			})
		})
	}
}

// TestBodyPanicReusesCarrier: a body's panic still becomes the kernel's
// error, and the carrier it ran on serves the next proc to start.
func TestBodyPanicReusesCarrier(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		k := m.kernel()
		var crashed *carrier
		k.NewProc("bad", 0, func(p *Proc) {
			crashed = p.carrier
			p.Delay(3)
			panic("kaput")
		})
		if err := k.Run(nil); err == nil || !strings.Contains(err.Error(), `proc "bad" crashed: kaput`) {
			t.Fatalf("err = %v, want the crash", err)
		}
		k = m.kernel()
		var next *carrier
		k.NewProc("next", 0, func(p *Proc) { next = p.carrier })
		if err := k.Run(nil); err != nil {
			t.Fatal(err)
		}
		if crashed == nil || next != crashed {
			t.Fatalf("the next proc ran on carrier %p, the crashed one on %p", next, crashed)
		}
	})
}

// TestCarriersPastCapExit: a kernel with more procs alive at once than
// the pool keeps leaves the pool full and no more goroutines behind.
func TestCarriersPastCapExit(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		goroutines, pooled := runtime.NumGoroutine(), pooledCarriers()
		runProcs(t, m, carrierPoolCap+32)
		if n := pooledCarriers(); n != carrierPoolCap {
			t.Fatalf("%d carriers pooled, want the cap %d", n, carrierPoolCap)
		}
		if n, want := runtime.NumGoroutine(), goroutines-pooled+carrierPoolCap; n > want {
			t.Fatalf("%d goroutines, want at most %d: %d before, %d carriers pooled then, %d now",
				n, want, goroutines, pooled, carrierPoolCap)
		}
	})
}

// TestPooledCarriersPinNothing: neither a kernel whose procs finished
// nor one whose procs were reaped stays reachable through the carriers
// it gave back. Each kernel holds (through a dump hook) and each proc
// body holds an object whose finalizer reports it collected.
func TestPooledCarriersPinNothing(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		for _, deadlock := range []bool{false, true} {
			collected := make(chan string, 2)
			func() {
				k := m.kernel()
				kernelObj, procObj := new([64]byte), new([64]byte)
				runtime.SetFinalizer(kernelObj, func(*[64]byte) { collected <- "kernel" })
				runtime.SetFinalizer(procObj, func(*[64]byte) { collected <- "proc" })
				k.AddDumpHook(func(w io.Writer) { fmt.Fprint(w, len(kernelObj)) })
				for i := 0; i < 8; i++ {
					k.NewProc(fmt.Sprint("p", i), 0, func(p *Proc) {
						p.Delay(Time(1 + i))
						procObj[i]++
						if deadlock {
							p.WaitUntil(Forever)
						}
					})
				}
				if err := k.Run(nil); (err != nil) != deadlock {
					t.Fatalf("deadlock=%v: err = %v", deadlock, err)
				}
			}()
			giveUp := time.After(5 * time.Second)
			for got := 0; got < 2; {
				runtime.GC()
				select {
				case <-collected:
					got++
				case <-time.After(10 * time.Millisecond):
				case <-giveUp:
					t.Fatalf("deadlock=%v: the kernel or a proc body is still reachable", deadlock)
				}
			}
		}
	})
}

// TestDumpAfterReapSaysBlocked: once Run has reaped a parked proc, a
// later DumpState still reports it blocked, not never started.
func TestDumpAfterReapSaysBlocked(t *testing.T) {
	k := NewKernel()
	k.NewProc("parked", 0, func(p *Proc) { p.Delay(2); p.WaitUntil(Forever) })
	k.NewProc("late", 10, func(p *Proc) {})
	k.SetDeadline(5)
	if err := k.Run(nil); err == nil {
		t.Fatal("expected a deadline error")
	}
	var b strings.Builder
	k.DumpState(&b)
	for _, want := range []string{`proc "parked": blocked since cycle 2`, `proc "late": never started`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, b.String())
		}
	}
}
