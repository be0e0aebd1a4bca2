package wsrt

import (
	"strings"
	"testing"

	"bigtiny/internal/sim"
)

// TestWatchdogDiagnostics forces a livelock — the root task spins on a
// flag nobody ever sets — and checks that the deadline error carries
// the full diagnostic report: the cause, the stuck procs, the runtime's
// deque/steal state, and the ULI unit state.
func TestWatchdogDiagnostics(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	m.Cfg.Deadline = 50_000
	m.Kernel.SetDeadline(50_000)
	rt := New(m, DTS)
	never := m.Mem.AllocWords(1)
	err := rt.Run(func(c *Ctx) {
		// Enqueue a child so a deque has an entry when the watchdog fires.
		c.spawnTask(c.newTask(fidRuntime, func(cc *Ctx) { cc.Compute(1) }))
		for c.Load(never) == 0 {
			c.Compute(64)
		}
	})
	if err == nil {
		t.Fatal("livelocked program finished")
	}
	msg := err.Error()
	for _, want := range []string{"deadline", "kernel:", "proc \"core0\"", "wsrt:", "uli:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog error missing %q:\n%s", want, msg)
		}
	}
}

// TestWatchdogDeadlockReport: a proc blocked forever with an empty
// event queue produces a deadlock report naming it.
func TestWatchdogDeadlockReport(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	m.Kernel.NewProc("stuck-proc", 0, func(p *sim.Proc) {
		p.WaitUntil(sim.Forever)
	})
	err := m.Kernel.Run(nil)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "proc \"stuck-proc\"", "blocked since cycle"} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock error missing %q:\n%s", want, msg)
		}
	}
}
