package uli

import (
	"strings"
	"testing"

	"bigtiny/internal/fault"
	"bigtiny/internal/sim"
)

// TestNackStormForwardProgress is the NACK-storm regression test: seven
// thieves hammer one victim while an injected storm force-NACKs most
// requests. Every thief must still complete its steal (forward
// progress through retry), each successful steal's total retry latency
// must stay bounded, and the storm must show up in the stats.
func TestNackStormForwardProgress(t *testing.T) {
	k := sim.NewKernel()
	k.SetDeadline(2_000_000)
	f := newFabric(k, 8)
	sc, err := fault.Lookup("uli-nack-storm")
	if err != nil {
		t.Fatal(err)
	}
	f.Faults = fault.NewInjector(sc, 1)

	victim := f.Unit(0)
	victim.EntryLat = 4
	victim.SetHandler(func(int) uint64 { return 0xBEEF })

	done := 0
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		// Poll every cycle until all thieves have succeeded.
		for done < 7 {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})

	lat := make([]sim.Time, 8)
	for i := 1; i <= 7; i++ {
		u := f.Unit(i)
		k.NewProc("thief", sim.Time(i), func(p *sim.Proc) {
			u.Bind(p)
			start := p.Now()
			for {
				payload, ok := u.SendReq(p, 0)
				if ok {
					if payload != 0xBEEF {
						t.Errorf("thief %d payload %#x", u.core, payload)
					}
					break
				}
				p.Delay(20) // retry backoff
			}
			lat[u.core] = p.Now() - start
			done++
		})
	}
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if f.Stats.Acks != 7 {
		t.Fatalf("acks = %d, want 7", f.Stats.Acks)
	}
	if f.Stats.Nacks == 0 {
		t.Fatal("storm produced no NACKs")
	}
	if f.Stats.Nacks != f.Stats.Reqs-f.Stats.Acks {
		t.Fatalf("stats inconsistent: %d reqs, %d acks, %d nacks",
			f.Stats.Reqs, f.Stats.Acks, f.Stats.Nacks)
	}
	if !strings.Contains(f.Faults.Summary(), fault.ULINack.String()+"=") {
		t.Fatalf("injector counted no forced NACKs: %s", f.Faults.Summary())
	}
	// Bounded retry latency: even the unluckiest thief must get through
	// well before the storm's second window (period 20_000).
	for i := 1; i <= 7; i++ {
		if lat[i] == 0 || lat[i] > 15_000 {
			t.Errorf("thief %d retry latency %d out of bounds", i, lat[i])
		}
	}
}
