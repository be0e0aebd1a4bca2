package sim

import "testing"

// BenchmarkSchedule measures the cost of scheduling plus firing one
// event through the kernel queue, with a live queue of ~1k events
// spread over the next 1024 cycles (all inside the timing wheel; a
// heap would pay ten levels). The headline metric is allocs/op: the
// indexed free-list queue must stay at zero.
func BenchmarkSchedule(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		k.At(Time(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fired int
	cb := func() { fired++ }
	k.NewProc("driver", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.At(k.Now()+depth, cb)
			p.Delay(1)
		}
	})
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerArmCancel measures arm/cancel churn of a timer armed
// beyond the wheel and stopped almost immediately: a push into the
// overflow heap and a removal from it.
func BenchmarkTimerArmCancel(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	k.NewProc("driver", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			tm := k.TimerAt(k.Now()+1_000_000, func() {})
			tm.Stop()
			p.Delay(1)
		}
	})
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitUntil measures a bare timed wait with an otherwise
// empty queue — the hot pattern of every core model's attribute().
// With the fast path this is a few loads and a store; in paranoid
// mode it is an event push and a pop, on the proc's own stack.
func BenchmarkWaitUntil(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	k.NewProc("driver", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(3)
		}
	})
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// benchLCG is a tiny deterministic generator for wait lengths.
type benchLCG uint64

func (g *benchLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 33)
}

// BenchmarkTwoProcPingPong measures the unavoidable slow path: two
// procs whose waits interleave, so every wait really does cross an
// event boundary and a coroutine switch out of one proc and into the
// other.
func BenchmarkTwoProcPingPong(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	body := func(p *Proc) {
		for i := 0; i < b.N/2+1; i++ {
			p.Delay(2)
		}
	}
	k.NewProc("a", 0, body)
	k.NewProc("b", 1, body)
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleNear is the shape of a ref run's queue: 64 procs,
// each waiting 1-128 cycles at a time, so the queue holds one resume
// per proc, all within a couple of hundred cycles of the cursor, and
// nearly every wait is a push, a pop and a switch.
func BenchmarkScheduleNear(b *testing.B) {
	const procs = 64
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < procs; i++ {
		g := benchLCG(i + 1)
		k.NewProc("p", Time(i), func(p *Proc) {
			for j := 0; j < b.N/procs+1; j++ {
				p.Delay(1 + Time(g.next()%128))
			}
		})
	}
	if err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpin is the idle side of a ref run: 8 procs backing off in
// 128-cycle chunks beside one busy proc whose waits are a few cycles.
// As a loop of WaitUntils every chunk switches to the spinner and back;
// as a WaitChain the busy proc's dispatcher walks them.
func BenchmarkSpin(b *testing.B) {
	for _, chained := range []bool{false, true} {
		name := "loop"
		if chained {
			name = "chain"
		}
		b.Run(name, func(b *testing.B) {
			const spinners = 8
			k := NewKernel()
			b.ReportAllocs()
			b.ResetTimer()
			chunks := b.N/spinners + 1
			for i := 0; i < spinners; i++ {
				k.NewProc("spinner", Time(i), func(p *Proc) {
					left := chunks
					step := func() (Time, bool) {
						left--
						return p.Now() + 128, left > 0
					}
					if chained {
						p.WaitChain(p.Now()+128, step)
						return
					}
					t := p.Now() + 128
					for ok := true; ok; t, ok = step() {
						p.WaitUntil(t)
					}
				})
			}
			k.NewProc("busy", 0, func(p *Proc) {
				for p.Now() < Time(chunks)*128 {
					p.Delay(3)
				}
			})
			if err := k.Run(nil); err != nil {
				b.Fatal(err)
			}
		})
	}
}
