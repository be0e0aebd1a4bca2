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

// BenchmarkTimerArmCancel measures the arm/cancel churn pattern the
// ULI steal timeout produces: a timer armed far in the future and
// stopped almost immediately. Tombstone compaction must keep the
// queue from growing.
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

// mergeBenchLCG is a tiny deterministic generator so the tree and the
// linear-scan reference below replay the exact same churn stream.
type mergeBenchLCG uint64

func (g *mergeBenchLCG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 33)
}

// linearScanMerge is the pre-tree merge this package shipped with: K
// shard heaps, global minimum found by scanning every root, O(K) per
// pop. Kept here as the microbenchmark baseline the tournament tree is
// measured against.
type linearScanMerge struct {
	queues []eventHeap
}

func (lm *linearScanMerge) popMin() (eventRef, bool) {
	best := -1
	for s := range lm.queues {
		if len(lm.queues[s]) == 0 {
			continue
		}
		if best < 0 || refLess(lm.queues[s][0], lm.queues[best][0]) {
			best = s
		}
	}
	if best < 0 {
		return eventRef{}, false
	}
	ref := lm.queues[best][0]
	lm.queues[best].popRoot()
	return ref, true
}

// mergeChurn yields the shared synthetic workload: after prefilling
// depth events per shard, each iteration pops the global minimum and
// pushes a replacement a short, pseudo-random distance ahead on a
// pseudo-random shard — the steady-state pop/push rhythm of a live
// kernel, with enough cross-shard churn that neither structure coasts
// on a single hot shard.
const (
	mergeBenchShards = 64
	mergeBenchDepth  = 16
)

func mergeBenchRef(g *mergeBenchLCG, at Time, seq uint64) eventRef {
	return eventRef{
		at:    at + 1 + Time(g.next()%97),
		seq:   seq,
		shard: int16(g.next() % mergeBenchShards),
	}
}

// BenchmarkMergeTreeK64 drives the real shard-merge machinery (winner
// tree + challenger cache) at K=64. Compare against
// BenchmarkMergeLinearK64: the tree must win, or the K=64 executor
// claim in DESIGN.md §17 is void.
func BenchmarkMergeTreeK64(b *testing.B) {
	k := NewKernel()
	k.Shard(mergeBenchShards, 2)
	// One live slot shared by every ref: skimDead sees fn != nil and
	// leaves the roots alone, so the benchmark measures pure merge cost.
	k.slots = append(k.slots, eventSlot{fn: func() {}})
	ss := k.sh
	g := mergeBenchLCG(1)
	seq := uint64(0)
	for s := 0; s < mergeBenchShards; s++ {
		for d := 0; d < mergeBenchDepth; d++ {
			ref := mergeBenchRef(&g, 0, seq)
			seq++
			ss.push(ref)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, ok := ss.popMin(k)
		if !ok {
			b.Fatal("merge ran dry")
		}
		next := mergeBenchRef(&g, ref.at, seq)
		seq++
		ss.push(next)
	}
}

// BenchmarkMergeLinearK64 replays the identical churn stream through
// the linear-scan baseline.
func BenchmarkMergeLinearK64(b *testing.B) {
	lm := &linearScanMerge{queues: make([]eventHeap, mergeBenchShards)}
	g := mergeBenchLCG(1)
	seq := uint64(0)
	for s := 0; s < mergeBenchShards; s++ {
		for d := 0; d < mergeBenchDepth; d++ {
			ref := mergeBenchRef(&g, 0, seq)
			seq++
			lm.queues[ref.shard].push(ref)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, ok := lm.popMin()
		if !ok {
			b.Fatal("merge ran dry")
		}
		next := mergeBenchRef(&g, ref.at, seq)
		seq++
		lm.queues[next.shard].push(next)
	}
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
		g := mergeBenchLCG(i + 1)
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
