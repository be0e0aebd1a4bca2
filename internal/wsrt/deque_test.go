package wsrt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bigtiny/internal/cpu"
	"bigtiny/internal/mem"
)

// TestDequeRandomInterleavings drives one thread's deque through the
// HW and HCC engines' own spawn, pop and steal paths — one owner doing
// a seeded random mix of pushes and pops with random think times, seven
// thieves stealing with their own random think times — under the
// deterministic kernel scheduler. Every pushed id is unique, so
// comparing the multiset of ids in against the multiset out detects
// both loss and duplication across the owner/thief races on the lock
// and, under HCC, the invalidate/flush windows.
func TestDequeRandomInterleavings(t *testing.T) {
	for _, e := range []struct {
		proto string
		v     Variant
	}{{"mesi", HW}, {"gwb", HCC}} {
		for _, seed := range []int64{1, 2, 3, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", e.v, seed), func(t *testing.T) {
				runDequeStress(t, e.proto, e.v, seed)
			})
		}
	}
}

// until runs the scheduling loop's steps from first on a hand-driven
// thread, the way cpu.Core.Drive runs them, until the next step would be
// stop, and returns the task the round holds: a pop, a steal or a
// reclaim on its own.
func (c *Ctx) until(first, stop step) mem.Addr {
	at := reflect.ValueOf(stop).Pointer()
	c.pc = first
	c.core.Drive(loopFunc(func() bool {
		return reflect.ValueOf(c.pc).Pointer() != at && c.pc(c)
	}))
	return c.got
}

// loopFunc is a func as a cpu.Loop.
type loopFunc func() bool

func (f loopFunc) Step() bool { return f() }

func runDequeStress(t *testing.T, proto string, v Variant, seed int64) {
	m := smallMachine(t, proto, false)
	rt := New(m, v)
	const nOps = 400
	nthreads := rt.nthreads
	var pushed uint64
	ownerDone := false
	taken := make([]map[uint64]int, nthreads) // per-thread ids removed

	m.Spawn(0, func(cc *cpu.Core) {
		c := handCtx(rt, cc)
		rng := rand.New(rand.NewSource(seed))
		got := map[uint64]int{}
		taken[0] = got
		next := uint64(1)
		for i := 0; i < nOps; i++ {
			if rng.Intn(3) != 0 { // 2/3 push, 1/3 pop
				c.spawnTask(mem.Addr(next))
				next++
			} else if task := c.until((*Ctx).popLocal, (*Ctx).popped); task != 0 {
				got[uint64(task)]++
			}
			c.Compute(1 + rng.Intn(7))
		}
		pushed = next - 1
		ownerDone = true
	})
	for th := 1; th < nthreads; th++ {
		th := th
		m.Spawn(th, func(cc *cpu.Core) {
			c := handCtx(rt, cc)
			rng := rand.New(rand.NewSource(seed*1000 + int64(th)))
			got := map[uint64]int{}
			taken[th] = got
			for {
				c.vid = 0
				if task := c.until((*Ctx).stealFrom, (*Ctx).stealt); task != 0 {
					got[uint64(task)]++
				} else if ownerDone {
					// A steal under the lock (after an invalidate, under
					// HCC) found the deque empty, and no pushes are
					// coming: empty is final.
					return
				}
				c.Compute(1 + rng.Intn(9))
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	all := map[uint64]int{}
	for _, got := range taken {
		for id, n := range got {
			all[id] += n
		}
	}
	for id, n := range all {
		if id == 0 || id > pushed {
			t.Errorf("id %d came out but was never pushed", id)
		}
		if n != 1 {
			t.Errorf("id %d came out %d times (duplicated)", id, n)
		}
	}
	for id := uint64(1); id <= pushed; id++ {
		if all[id] == 0 {
			t.Errorf("id %d was pushed but never came out (lost)", id)
		}
	}
	if uint64(len(all)) != pushed {
		t.Errorf("%d distinct ids out, %d pushed", len(all), pushed)
	}
}
