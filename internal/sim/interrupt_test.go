package sim

import (
	"strings"
	"testing"
	"time"
)

// TestInterruptAbortsRun: an Interrupt from another goroutine stops a
// simulation whose event queue would never drain, and the error carries
// the reason plus the diagnostic dump.
func TestInterruptAbortsRun(t *testing.T) {
	k := NewKernel()
	var tick func()
	tick = func() { k.At(k.Now()+1, tick) }
	k.At(k.Now()+1, tick)
	go func() {
		time.Sleep(5 * time.Millisecond)
		k.Interrupt("wall-clock budget exceeded")
	}()
	err := k.Run(nil)
	if err == nil {
		t.Fatal("interrupted run returned nil")
	}
	for _, want := range []string{"interrupted: wall-clock budget exceeded", "kernel:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("interrupt error missing %q:\n%v", want, err)
		}
	}
}

// TestInterruptBreaksFastWaitChain: a proc advancing time purely through
// the WaitUntil fast path must still observe an interrupt — the fast
// path re-checks the request on every wait, so a fast-waiting spinner
// cannot outrun cancellation.
func TestInterruptBreaksFastWaitChain(t *testing.T) {
	k := NewKernel()
	k.NewProc("spinner", 0, func(p *Proc) {
		for i := 0; i < 1<<40; i++ {
			p.Delay(1)
		}
	})
	go func() {
		time.Sleep(5 * time.Millisecond)
		k.Interrupt("drain")
	}()
	err := k.Run(nil)
	if err == nil || !strings.Contains(err.Error(), "interrupted: drain") {
		t.Fatalf("fast-waiting proc survived the interrupt: %v", err)
	}
}

// TestInterruptFirstReasonWins: later Interrupt calls must not replace
// the first reason.
func TestInterruptFirstReasonWins(t *testing.T) {
	k := NewKernel()
	k.Interrupt("first")
	k.Interrupt("second")
	k.At(k.Now()+1, func() {})
	err := k.Run(nil)
	if err == nil || !strings.Contains(err.Error(), "interrupted: first") {
		t.Fatalf("want first interrupt reason, got: %v", err)
	}
}
