package sim

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestDumpStateReportsProcsAndHooks(t *testing.T) {
	k := NewKernel()
	k.NewProc("runner", 0, func(p *Proc) { p.Delay(10) })
	k.NewProc("parked", 0, func(p *Proc) { p.WaitUntil(Forever) })
	k.AddDumpHook(func(w io.Writer) { fmt.Fprintln(w, "hook: extra state") })
	err := k.Run(nil)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		"procs=1/2 finished",
		"proc \"parked\": blocked since cycle",
		"hook: extra state",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "\"runner\"") {
		t.Errorf("finished proc listed in report:\n%s", msg)
	}
}

func TestDeadlineErrorCarriesReport(t *testing.T) {
	k := NewKernel()
	k.SetDeadline(100)
	k.NewProc("spinner", 0, func(p *Proc) {
		for {
			p.Delay(10)
		}
	})
	err := k.Run(nil)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	msg := err.Error()
	for _, want := range []string{"deadline 100 cycles exceeded", "proc \"spinner\""} {
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
}

func TestBlockedSinceTracksLastYield(t *testing.T) {
	k := NewKernel()
	var b strings.Builder
	k.NewProc("waiter", 0, func(p *Proc) {
		p.Delay(123)
		p.WaitUntil(Forever)
	})
	if err := k.Run(nil); err == nil {
		t.Fatal("expected deadlock error")
	}
	k.DumpState(&b)
	if !strings.Contains(b.String(), "blocked since cycle 123") {
		t.Errorf("blockedSince not updated:\n%s", b.String())
	}
}
