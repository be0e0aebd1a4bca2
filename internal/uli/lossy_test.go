package uli

import (
	"fmt"
	"strings"
	"testing"

	"bigtiny/internal/fault"
	"bigtiny/internal/sim"
)

// lossyFabric wires a 2-core fabric with a custom scenario and a steal
// timeout, as the machine layer does for lossy runs.
func lossyFabric(k *sim.Kernel, sc fault.Scenario, timeout sim.Time) *Fabric {
	f := newFabric(k, 2)
	f.Faults = fault.NewInjector(sc, 1)
	f.Timeout = timeout
	return f
}

// TestDroppedRequestTimesOut: when the steal request vanishes on the
// mesh, the thief's timer fires and SendReq returns a NACK-equivalent
// failure at exactly sentAt+Timeout.
func TestDroppedRequestTimesOut(t *testing.T) {
	k := sim.NewKernel()
	k.SetDeadline(10_000)
	f := lossyFabric(k, fault.Scenario{ULIReqDropProb: 1}, 64)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.SetHandler(func(int) uint64 { return 0xCAFE })

	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		for i := 0; i < 200; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	var ok bool
	var resumedAt sim.Time
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		_, ok = thief.SendReq(p, 0)
		resumedAt = p.Now()
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("steal over a dropped request succeeded")
	}
	if resumedAt != 10+64 {
		t.Fatalf("thief resumed at %d, want %d (sentAt+Timeout)", resumedAt, 10+64)
	}
	s := f.Stats
	if s.Reqs != 1 || s.Drops != 1 || s.Timeouts != 1 || s.Acks != 0 || s.Nacks != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Reqs != s.Acks+s.Nacks+s.Drops {
		t.Fatalf("accounting identity violated: %+v", s)
	}
}

// TestDroppedAckRestitution: the victim's handler hands a task over but
// the ACK carrying it is dropped. The victim must take the task back
// (restitution) so it is neither lost nor duplicated, and the thief
// times out empty-handed.
func TestDroppedAckRestitution(t *testing.T) {
	k := sim.NewKernel()
	k.SetDeadline(10_000)
	f := lossyFabric(k, fault.Scenario{ULIRespDropProb: 1}, 64)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.SetHandler(func(int) uint64 { return 0xBEEF })
	var restituted []uint64
	victim.SetRestitute(func(p uint64) { restituted = append(restituted, p) })

	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		for i := 0; i < 500; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	var ok bool
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		_, ok = thief.SendReq(p, 0)
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("steal succeeded despite its ACK being dropped")
	}
	if len(restituted) != 1 || restituted[0] != 0xBEEF {
		t.Fatalf("restituted = %#x, want [0xBEEF]", restituted)
	}
	s := f.Stats
	if s.Restitutions != 1 || s.Drops != 1 || s.Timeouts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Reqs != s.Acks+s.Nacks+s.Drops {
		t.Fatalf("accounting identity violated: %+v", s)
	}
}

// TestLateAckSalvaged: the victim is busy past the thief's timeout, so
// the ACK arrives stale. Its payload must land in the thief's salvage
// mailbox and be handed to the salvage hook at the thief's next Poll —
// the task is recovered, not lost.
func TestLateAckSalvaged(t *testing.T) {
	k := sim.NewKernel()
	k.SetDeadline(10_000)
	// No drops at all: the loss here is purely temporal (a too-slow ACK).
	f := lossyFabric(k, fault.Scenario{}, 32)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.SetHandler(func(int) uint64 { return 0xF00D })
	var salvaged []uint64
	thief.SetSalvage(func(p uint64) { salvaged = append(salvaged, p) })

	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		// Busy-compute far past the thief's 32-cycle timeout before the
		// first Poll: the ACK goes out long after the thief gave up.
		p.Delay(200)
		for i := 0; i < 200; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	var ok bool
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		thief.Enable()
		_, ok = thief.SendReq(p, 0)
		// Keep polling: the stale ACK arrives later and must be salvaged.
		for i := 0; i < 400; i++ {
			thief.Poll(p)
			p.Delay(1)
		}
		thief.Disable()
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("timed-out steal reported success")
	}
	if len(salvaged) != 1 || salvaged[0] != 0xF00D {
		t.Fatalf("salvaged = %#x, want [0xF00D]", salvaged)
	}
	s := f.Stats
	if s.Timeouts != 1 || s.LateAcks != 1 || s.Acks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Reqs != s.Acks+s.Nacks+s.Drops {
		t.Fatalf("accounting identity violated: %+v", s)
	}
}

// TestRetryAfterDropsEventuallySucceeds: with a 50% drop rate on both
// directions, a thief that retries on every timeout must eventually get
// the task, and the terminal-outcome identity must hold across all the
// attempts.
func TestRetryAfterDropsEventuallySucceeds(t *testing.T) {
	k := sim.NewKernel()
	k.SetDeadline(1_000_000)
	f := lossyFabric(k, fault.Scenario{ULIReqDropProb: 0.5, ULIRespDropProb: 0.5}, 64)
	victim, thief := f.Unit(0), f.Unit(1)
	tasks := []uint64{0x11, 0x22, 0x33}
	victim.SetHandler(func(int) uint64 {
		if len(tasks) == 0 {
			return 0
		}
		p := tasks[0]
		tasks = tasks[1:]
		return p
	})
	victim.SetRestitute(func(p uint64) { tasks = append([]uint64{p}, tasks...) })

	done := false
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		for !done {
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	var got uint64
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		for i := 0; i < 200; i++ {
			if payload, ok := thief.SendReq(p, 0); ok && payload != 0 {
				got = payload
				break
			}
			p.Delay(10)
		}
		done = true
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("thief never obtained a task through 50% loss")
	}
	s := f.Stats
	if s.Drops == 0 {
		t.Fatal("scenario dropped nothing")
	}
	if s.Reqs != s.Acks+s.Nacks+s.Drops {
		t.Fatalf("accounting identity violated: %+v", s)
	}
	// A task restituted after a dropped ACK must be handed over at most
	// once overall: the winning payload was removed from tasks exactly
	// once and never re-delivered.
	for _, rem := range tasks {
		if rem == got {
			t.Fatalf("task %#x both delivered and still queued", got)
		}
	}
}

// TestTakeLateDrainsMailbox: the memory-mapped salvage-mailbox read
// used by reclaimers pops payloads in arrival order without invoking
// the salvage hook, and reports empty once drained.
func TestTakeLateDrainsMailbox(t *testing.T) {
	k := sim.NewKernel()
	f := lossyFabric(k, fault.Scenario{}, 0)
	u := f.Unit(0)
	u.SetSalvage(func(uint64) { t.Fatal("salvage hook ran during TakeLate") })
	u.late = []uint64{0xA, 0xB}
	if p, ok := u.TakeLate(); !ok || p != 0xA {
		t.Fatalf("first TakeLate = %#x, %v", p, ok)
	}
	if p, ok := u.TakeLate(); !ok || p != 0xB {
		t.Fatalf("second TakeLate = %#x, %v", p, ok)
	}
	if _, ok := u.TakeLate(); ok {
		t.Fatal("TakeLate on an empty mailbox reported a payload")
	}
}

// TestSendReqAllocatesNothing: once warm, a steal request allocates
// nothing, whether it is ACKed, NACKed by a disabled victim, or timed
// out (its ACK arriving late and going through the salvage mailbox).
func TestSendReqAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	f := lossyFabric(k, fault.Scenario{}, 64)
	victim, thief := f.Unit(0), f.Unit(1)
	mode, done := 0, false
	victim.SetHandler(func(int) uint64 {
		if mode == 2 {
			victim.proc.Delay(100) // past the thief's timeout
		}
		return 0xF00D
	})
	salvaged := 0
	thief.SetSalvage(func(uint64) { salvaged++ })
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		for !done {
			if mode == 1 {
				victim.Disable()
			} else {
				victim.Enable()
			}
			victim.Poll(p)
			p.Delay(1)
		}
		victim.Disable()
	})
	var allocs float64
	k.NewProc("thief", 0, func(p *sim.Proc) {
		thief.Bind(p)
		thief.Enable()
		i := 0
		steal := func() {
			mode = i % 3
			i++
			p.Delay(2) // the victim sees the mode before the request lands
			thief.SendReq(p, 0)
			for j := 0; j < 100; j++ {
				thief.Poll(p)
				p.Delay(1)
			}
		}
		for i < 30 {
			steal()
		}
		allocs = testing.AllocsPerRun(60, steal)
		done = true
		thief.Disable()
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	s := f.Stats
	if s.Acks == 0 || s.Nacks == 0 || s.Timeouts == 0 || s.LateAcks == 0 || salvaged != int(s.LateAcks) {
		t.Fatalf("the mix lacks an outcome: stats %+v, %d salvaged", s, salvaged)
	}
	if allocs != 0 {
		t.Fatalf("a steal request allocates %v objects", allocs)
	}
}

// TestULIInvariantPanics: each broken invariant of the steal protocol
// panics with its name instead of hanging a thread or losing a task.
func TestULIInvariantPanics(t *testing.T) {
	cases := []struct {
		name, want string
		run        func(k *sim.Kernel)
	}{
		{
			// A lost request with no timer would leave the thief waiting
			// forever.
			name: "drop without timeout",
			want: "uli: steal request dropped with no steal timeout armed",
			run: func(k *sim.Kernel) {
				f := lossyFabric(k, fault.Scenario{ULIReqDropProb: 1}, 0)
				thief := f.Unit(1)
				k.NewProc("thief", 10, func(p *sim.Proc) {
					thief.Bind(p)
					thief.SendReq(p, 0)
				})
			},
		},
		{
			// A handed-over task whose ACK is lost must go back to the
			// victim; without the hook it would vanish.
			name: "dropped ACK without restitute hook",
			want: "uli: dropped ACK with a task payload and no restitute hook",
			run: func(k *sim.Kernel) {
				f := lossyFabric(k, fault.Scenario{ULIRespDropProb: 1}, 64)
				victim, thief := f.Unit(0), f.Unit(1)
				victim.SetHandler(func(int) uint64 { return 0xBEEF })
				k.NewProc("victim", 0, func(p *sim.Proc) {
					victim.Bind(p)
					victim.Enable()
					for i := 0; i < 100; i++ {
						victim.Poll(p)
						p.Delay(1)
					}
				})
				k.NewProc("thief", 10, func(p *sim.Proc) {
					thief.Bind(p)
					thief.SendReq(p, 0)
				})
			},
		},
		{
			// A response can only wake the thread bound to the unit.
			name: "response to an unbound unit",
			want: "uli: response for a core with no thread",
			run: func(k *sim.Kernel) {
				f := lossyFabric(k, fault.Scenario{}, 64)
				victim, thief := f.Unit(0), f.Unit(1)
				k.NewProc("victim", 0, func(p *sim.Proc) {
					victim.Bind(p)
					victim.Enable()
					for i := 0; i < 100; i++ {
						victim.Poll(p)
						p.Delay(1)
					}
				})
				k.NewProc("thief", 10, func(p *sim.Proc) { thief.SendReq(p, 0) })
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			k.SetDeadline(10_000)
			tc.run(k)
			// A panic in a thread ends Run with an error carrying the
			// panic value; one in a kernel callback propagates.
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				if err := k.Run(nil); err != nil {
					got = err.Error()
				}
			}()
			if !strings.Contains(got, tc.want) {
				t.Fatalf("Run ended with %q, want %q", got, tc.want)
			}
		})
	}

	// A timer outliving its response would wake the thief twice.
	t.Run("timer after response", func(t *testing.T) {
		f := lossyFabric(sim.NewKernel(), fault.Scenario{}, 64)
		u := f.Unit(1)
		u.respDone = true
		defer func() {
			if r, want := recover(), "uli: steal timer fired after its response"; r != want {
				t.Fatalf("timeoutFire panicked with %v, want %q", r, want)
			}
		}()
		u.timeoutFire()
	})
}

// TestDumpStateNamesSalvageMailbox: a stale ACK that no Poll has taken
// yet shows in the deadline dump, so a task parked there is visible.
func TestDumpStateNamesSalvageMailbox(t *testing.T) {
	k := sim.NewKernel()
	k.SetDeadline(10_000)
	f := lossyFabric(k, fault.Scenario{}, 32)
	victim, thief := f.Unit(0), f.Unit(1)
	victim.SetHandler(func(int) uint64 { return 0xF00D })
	k.NewProc("victim", 0, func(p *sim.Proc) {
		victim.Bind(p)
		victim.Enable()
		p.Delay(200) // past the thief's timeout: the ACK arrives stale
		for i := 0; i < 200; i++ {
			victim.Poll(p)
			p.Delay(1)
		}
	})
	k.NewProc("thief", 10, func(p *sim.Proc) {
		thief.Bind(p)
		thief.SendReq(p, 0) // times out; the thief never polls again
	})
	if err := k.Run(nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	f.DumpState(&b)
	if want := "  unit 1: enabled=false waiting=false handling=false salvage-mailbox=1\n"; !strings.Contains(b.String(), want) {
		t.Fatalf("dump lacks %q:\n%s", want, b.String())
	}
}
