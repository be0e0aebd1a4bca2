package sim

import (
	"fmt"
	"strings"
	"testing"
)

// chainDeltas is the wait sequence the chain tests walk: short and long
// waits, zero-length ones (alone, doubled, and last before the end).
var chainDeltas = []Time{3, 0, 5, 1, 0, 0, 9, 2, 40, 1, 1, 0, 7, 0}

// chainWalk runs the deltas as one WaitChain (chained) or as the loop
// of WaitUntils it stands for, calling note after every wait.
func chainWalk(p *Proc, chained bool, note func()) {
	i := 0
	step := func() (Time, bool) {
		note()
		if i++; i == len(chainDeltas) {
			return 0, false
		}
		return p.Now() + chainDeltas[i], true
	}
	t := p.Now() + chainDeltas[0]
	if chained {
		p.WaitChain(t, step)
		return
	}
	for ok := true; ok; t, ok = step() {
		p.WaitUntil(t)
	}
}

// chainScenario surrounds a chain walker with what can interleave with
// it: a proc on a different period (so each is the other's dispatcher
// in turn), an armed-and-stopped timer, and a self-rearming callback
// that outlives that proc (so the walker ends up popping its own
// resumes). It returns the observation log and the kernel.
func chainScenario(t *testing.T, chained, paranoid bool, setup func(k *Kernel)) (string, *Kernel, error) {
	k := NewKernel()
	k.SetParanoid(paranoid)
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%s@%d", who, k.Now())) }
	k.NewProc("walker", 0, func(p *Proc) {
		defer note("walker gone")
		for round := 0; round < 3; round++ {
			chainWalk(p, chained, func() { note("w") })
			note("W")
		}
	})
	k.NewProc("other", 1, func(p *Proc) {
		for i := 0; i < 30; i++ {
			tm := k.TimerAfter(20, func() { t.Error("stopped timer fired") })
			p.Delay(Time(2 + i%5))
			tm.Stop()
			note("o")
		}
	})
	var tick func()
	ticks := 0
	tick = func() {
		note("t")
		if ticks++; ticks < 40 {
			k.At(k.Now()+5, tick)
		}
	}
	k.At(6, tick)
	if setup != nil {
		setup(k)
	}
	err := k.Run(nil)
	return fmt.Sprint(log), k, err
}

// TestWaitChainMatchesLoop: a chain is observationally the loop of
// WaitUntils it stands for — same interleaving with everything else,
// same clocks, same scheduled/fired/elided counts — with and without
// KernelParanoid, where the steps run on the proc. What it saves is
// coroutine resumes.
func TestWaitChainMatchesLoop(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		loopLog, lk, err := chainScenario(t, false, m.paranoid, nil)
		if err != nil {
			t.Fatal(err)
		}
		chainLog, ck, err := chainScenario(t, true, m.paranoid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if chainLog != loopLog {
			t.Fatalf("chain log\n%v\nloop log\n%v", chainLog, loopLog)
		}
		if ck.Now() != lk.Now() || ck.Scheduled() != lk.Scheduled() ||
			ck.Fired() != lk.Fired() || ck.FastWaits() != lk.FastWaits() {
			t.Fatalf("chain now/scheduled/fired/fastwaits %d/%d/%d/%d, loop %d/%d/%d/%d",
				ck.Now(), ck.Scheduled(), ck.Fired(), ck.FastWaits(),
				lk.Now(), lk.Scheduled(), lk.Fired(), lk.FastWaits())
		}
		if m.paranoid && ck.Resumes() != lk.Resumes() {
			t.Fatalf("paranoid chain resumed %d times, loop %d: steps did not run on the proc", ck.Resumes(), lk.Resumes())
		}
		if !m.paranoid && ck.Resumes() >= lk.Resumes() {
			t.Fatalf("chain resumed %d times, loop %d: nothing saved", ck.Resumes(), lk.Resumes())
		}
	})
}

// TestWaitChainAbortsLikeLoop: a deadline, an interrupt, and a crash
// elsewhere that land while a proc is mid-chain report exactly what
// they report against the loop — the same next event, the same
// blocked-since cycle for every proc — and unwind the walker.
func TestWaitChainAbortsLikeLoop(t *testing.T) {
	aborts := map[string]func(k *Kernel){
		"deadline":  func(k *Kernel) { k.SetDeadline(57) },
		"interrupt": func(k *Kernel) { k.At(57, func() { k.Interrupt("enough") }) },
		"crash":     func(k *Kernel) { k.NewProc("bad", 57, func(*Proc) { panic("kaput") }) },
	}
	for name, abort := range aborts {
		t.Run(name, func(t *testing.T) {
			forEachKernelMode(t, func(t *testing.T, m kernelMode) {
				loopLog, _, loopErr := chainScenario(t, false, m.paranoid, abort)
				chainLog, _, chainErr := chainScenario(t, true, m.paranoid, abort)
				if loopErr == nil || fmt.Sprint(chainErr) != fmt.Sprint(loopErr) {
					t.Fatalf("chain error\n%v\nloop error\n%v", chainErr, loopErr)
				}
				if chainLog != loopLog || !strings.Contains(chainLog, "walker gone@") {
					t.Fatalf("chain log\n%v\nloop log\n%v", chainLog, loopLog)
				}
			})
		})
	}
}

// TestWaitChainStopAndRerun: a stop predicate that turns true mid-chain
// parks everything; the next Run picks the chain up where it was.
func TestWaitChainStopAndRerun(t *testing.T) {
	run := func(stopAt Time) (string, Time) {
		k := NewKernel()
		var log []string
		k.NewProc("walker", 0, func(p *Proc) {
			chainWalk(p, true, func() { log = append(log, fmt.Sprint(p.Now())) })
		})
		k.NewProc("other", 0, func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Delay(4)
			}
		})
		if stopAt > 0 {
			if err := k.Run(func() bool { return k.Now() >= stopAt }); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(nil); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log), k.Now()
	}
	wantLog, wantEnd := run(0)
	for stopAt := Time(1); stopAt < 70; stopAt += 3 {
		if log, end := run(stopAt); log != wantLog || end != wantEnd {
			t.Fatalf("stop at %d: log %v end %d, uninterrupted %v end %d", stopAt, log, end, wantLog, wantEnd)
		}
	}
}

// TestWaitChainStepPanicResurfaces: a step runs on whoever dispatches —
// another proc here, or with no company the walker itself, every wait
// elided — and its panic comes out of Run unchanged either way. Under
// KernelParanoid the step is part of the walker's own loop, so its
// panic is the walker's crash.
func TestWaitChainStepPanicResurfaces(t *testing.T) {
	forEachKernelMode(t, func(t *testing.T, m kernelMode) {
		for _, company := range []bool{true, false} {
			k := m.kernel()
			k.NewProc("walker", 0, func(p *Proc) {
				steps := 0
				p.WaitChain(2, func() (Time, bool) {
					if steps++; steps == 3 {
						panic("bad step")
					}
					return p.Now() + 2, true
				})
			})
			if company {
				k.NewProc("other", 1, func(p *Proc) {
					for {
						p.Delay(2)
					}
				})
			}
			if m.paranoid {
				err := k.Run(nil)
				if err == nil || !strings.Contains(err.Error(), `proc "walker" crashed: bad step`) {
					t.Fatalf("company=%v: err = %v, want the walker's crash", company, err)
				}
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != "bad step" {
						t.Fatalf("company=%v: Run panicked with %v, want the step's value", company, r)
					}
				}()
				k.Run(nil)
				t.Fatalf("company=%v: Run returned", company)
			}()
		}
	})
}
