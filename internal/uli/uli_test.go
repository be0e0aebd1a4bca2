package uli

import (
	"testing"

	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// sendReq is a blocking steal request, the way a thread without a wait
// chain takes one: Send, parked until the response or the timeout
// resumes it, then Finish.
func (u *Unit) sendReq(p *sim.Proc, victim int) (payload uint64, ok bool) {
	u.Send(victim)
	p.WaitUntil(sim.Forever)
	return u.Finish()
}

// testRig wires a fabric with n cores on a 1xN mesh, each running a
// configurable loop.
func newFabric(k *sim.Kernel, n int) *Fabric {
	return NewFabric(k, 1, n, n, func(c int) noc.NodeID { return noc.NodeID(c) })
}

func TestStealRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	f := newFabric(k, 2)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.EntryLat = 5

	handled := false
	victim.SetHandler(func(th int) uint64 {
		if th != 1 {
			t.Errorf("handler thief = %d, want 1", th)
		}
		handled = true
		return 0xCAFE
	})

	var gotPayload uint64
	var gotOK bool
	vp := k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		// Victim does "work", polling at instruction boundaries.
		for i := 0; i < 2000; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	_ = vp
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		thief.Enable()
		gotPayload, gotOK = thief.sendReq(p, 0)
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !handled || !gotOK || gotPayload != 0xCAFE {
		t.Fatalf("steal failed: handled=%v ok=%v payload=%#x", handled, gotOK, gotPayload)
	}
	if f.Stats.Acks != 1 || f.Stats.Nacks != 0 || f.Stats.Reqs != 1 {
		t.Fatalf("stats = %+v", f.Stats)
	}
	if f.Stats.AvgLatency() < 5 {
		t.Fatalf("latency %v implausibly low", f.Stats.AvgLatency())
	}
}

func TestNackWhenDisabled(t *testing.T) {
	k := sim.NewKernel()
	f := newFabric(k, 2)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.SetHandler(func(int) uint64 { return 1 })

	var ok bool
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		// ULI never enabled.
		p.Delay(500)
	})
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		_, ok = thief.sendReq(p, 0)
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("steal from disabled core succeeded")
	}
	if f.Stats.Nacks != 1 {
		t.Fatalf("nacks = %d, want 1", f.Stats.Nacks)
	}
}

func TestMutualStealNoDeadlock(t *testing.T) {
	// Two cores steal from each other simultaneously. The
	// NACK-while-waiting rule must prevent deadlock.
	k := sim.NewKernel()
	k.SetDeadline(1_000_000)
	f := newFabric(k, 2)
	results := make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		u := f.Unit(i)
		u.SetHandler(func(int) uint64 { return 42 })
		k.NewProc("core", 0, func(p *sim.Proc) {
			u.Bind(p)
			u.Enable()
			_, results[i] = u.sendReq(p, 1-i)
			// Keep polling a while so a retry could succeed.
			for j := 0; j < 100; j++ {
				u.Poll(p)
				p.Delay(1)
			}
			u.Disable()
		})
	}
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	// At least one must have been NACKed (both were waiting), and the
	// system must terminate (checked by Run returning).
	if results[0] && results[1] {
		t.Fatal("both mutual steals succeeded; expected at least one NACK")
	}
}

func TestBusyHandlerNacksSecondThief(t *testing.T) {
	k := sim.NewKernel()
	f := newFabric(k, 3)
	victim := f.Unit(0)
	victim.EntryLat = 2
	victim.SetHandler(func(int) uint64 {
		return 7
	})
	oks := make([]bool, 3)
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		for i := 0; i < 5000; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	// Two thieves fire at the same instant.
	for i := 1; i <= 2; i++ {
		i := i
		u := f.Unit(i)
		k.NewProc("thief", 5, func(p *sim.Proc) {
			u.Bind(p)
			_, oks[i] = u.sendReq(p, 0)
		})
	}
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if oks[1] && oks[2] {
		// Both could succeed if the buffer drained between arrivals —
		// but they were sent at the same cycle from equidistant nodes...
		// distances differ (1 hop vs 2 hops), so sequential success is
		// actually possible. Accept either, but at least one must
		// succeed.
	}
	if !oks[1] && !oks[2] {
		t.Fatal("both thieves NACKed by an idle polling victim")
	}
}

func TestDisableNacksPendingRequest(t *testing.T) {
	// A request buffered but not yet delivered when the victim disables
	// ULI is NACKed (a disabled core replies NACK, and a core must never
	// exit while a thief is still blocked on it).
	k := sim.NewKernel()
	f := newFabric(k, 2)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.SetHandler(func(int) uint64 { return 9 })
	var ok, returned bool
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		p.Delay(20) // request arrives during this window and is buffered
		victim.Disable()
		// Victim exits without ever polling again.
	})
	k.NewProc("thief", 5, func(p *sim.Proc) {
		thief.Bind(p)
		_, ok = thief.sendReq(p, 0)
		returned = true
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatal("thief never unblocked")
	}
	if ok {
		t.Fatal("steal from a disabling core should NACK")
	}
	if f.Stats.Nacks != 1 {
		t.Fatalf("nacks = %d, want 1", f.Stats.Nacks)
	}
}

func TestHandlerCostsVictimTime(t *testing.T) {
	k := sim.NewKernel()
	f := newFabric(k, 2)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.EntryLat = 30 // big-core-style entry
	victim.SetHandler(func(int) uint64 { return 1 })
	var victimEnd sim.Time
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		for i := 0; i < 100; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
		victimEnd = p.Now()
	})
	k.NewProc("thief", 0, func(p *sim.Proc) {
		thief.Bind(p)
		thief.sendReq(p, 0)
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if victimEnd < 130 {
		t.Fatalf("victim finished at %d; handler entry cost not charged", victimEnd)
	}
}
