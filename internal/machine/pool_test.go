package machine

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"bigtiny/internal/cpu"
	"bigtiny/internal/sim"
)

// pooled empties the pool of cfg's shape, calls f, and returns what
// the pool then holds (nil: nothing). The caller runs on one P (see
// onOneP), where a released machine waits in that P's slot.
func pooled(cfg Config, f func()) *Machine {
	Drain(cfg)
	f()
	m, _ := poolOf(shapeOf(cfg)).Get().(*Machine)
	return m
}

// raceDrops is why a test cannot count on a released machine being
// pooled under -race: there sync.Pool drops a quarter of what it is
// given, at random.
const raceDrops = "under the race detector sync.Pool drops items at random"

// onOneP runs the test on one P for its remainder.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func spin(c *cpu.Core) {
	for {
		c.Compute(10)
	}
}

// TestReleaseKeepsOnlyFinishedRuns: a run that took the simulation to
// its end is pooled; one that ended in a deadline, an interrupt, a
// deadlock, a callback panic, a stop predicate with a proc parked, or
// whose cancellation watcher fired, is left to the collector.
func TestReleaseKeepsOnlyFinishedRuns(t *testing.T) {
	onOneP(t)
	cfg := mustCfg(t, "bT8/HCC-DTS-gwb")
	cases := []struct {
		name string
		kept bool
		run  func(m *Machine)
	}{
		{"finished", true, func(m *Machine) {
			m.Spawn(0, func(c *cpu.Core) { c.Compute(100) })
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"watched, finished", true, func(m *Machine) {
			defer m.InterruptOn(context.Background(), "job")()
			m.Spawn(0, func(c *cpu.Core) { c.Compute(100) })
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"deadline", false, func(m *Machine) {
			m.Kernel.SetDeadline(1000)
			m.Spawn(0, spin)
			if err := m.Run(); err == nil {
				t.Fatal("no deadline error")
			}
		}},
		{"interrupt", false, func(m *Machine) {
			m.Spawn(0, spin)
			m.Kernel.At(1000, func() { m.Kernel.Interrupt("stop") })
			if err := m.Run(); err == nil {
				t.Fatal("no interrupt error")
			}
		}},
		{"deadlock", false, func(m *Machine) {
			m.Spawn(0, func(c *cpu.Core) { c.Compute(100) })
			m.Kernel.NewProc("parked", 0, func(p *sim.Proc) { p.WaitUntil(sim.Forever) })
			if err := m.Run(); err == nil {
				t.Fatal("no deadlock error")
			}
		}},
		{"panic", false, func(m *Machine) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			m.Spawn(0, func(c *cpu.Core) { c.Compute(100) })
			m.Kernel.At(10_000, func() { panic("boom") })
			m.Run()
		}},
		{"stopped with a proc parked", false, func(m *Machine) {
			m.Spawn(0, spin)
			if err := m.Kernel.Run(func() bool { return m.Kernel.Now() >= 1000 }); err != nil {
				t.Fatal(err)
			}
		}},
		{"watcher fired after the run", false, func(m *Machine) {
			ctx, cancel := context.WithCancel(context.Background())
			defer m.InterruptOn(ctx, "job")()
			m.Spawn(0, func(c *cpu.Core) { c.Compute(100) })
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			cancel()
		}},
	}
	for _, tc := range cases {
		var m *Machine
		got := pooled(cfg, func() {
			m = New(cfg)
			tc.run(m)
			m.Release()
		})
		if kept := got == m; (kept != tc.kept && !(raceEnabled && tc.kept)) || (got != nil && !kept) {
			t.Errorf("%s: pooled %v, want %v", tc.name, kept, tc.kept)
		}
		if !tc.kept {
			// Unwind what a stop predicate left parked.
			m.Kernel.Interrupt("test over")
			m.Kernel.Run(nil)
		}
	}
}

// TestReleaseTwicePoolsOnce: a second Release of the same machine is a
// no-op, so one machine cannot be handed to two owners.
func TestReleaseTwicePoolsOnce(t *testing.T) {
	onOneP(t)
	cfg := mustCfg(t, "bT8/HCC-gwb")
	m := New(cfg)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	p := poolOf(shapeOf(cfg))
	got := pooled(cfg, func() {
		m.Release()
		m.Release()
	})
	if got == nil && raceEnabled {
		t.Skip(raceDrops)
	}
	if got != m || p.Get() != nil {
		t.Fatal("a machine released twice was pooled twice, or not at all")
	}
}

// TestPooledMachinePinsNothing: a pooled machine holds no proc body,
// dump hook, ULI handler or hook of the program it ran, so whatever
// they captured is collectable while the machine waits in the pool.
func TestPooledMachinePinsNothing(t *testing.T) {
	onOneP(t)
	cfg := mustCfg(t, "bT8/HCC-DTS-gwb")
	collected := make(chan struct{}, 1)
	var m *Machine
	got := pooled(cfg, func() {
		m = New(cfg)
		data := new([64]byte)
		runtime.SetFinalizer(data, func(*[64]byte) { collected <- struct{}{} })
		use := func(p uint64) { data[p%64]++ }
		m.Kernel.AddDumpHook(func(w io.Writer) { fmt.Fprint(w, len(data)) })
		for core := range m.Cores {
			u := m.ULI.Unit(core)
			u.SetHandler(func(thief int) uint64 { use(uint64(thief)); return 0 })
			u.SetSalvage(use)
			u.SetRestitute(use)
			m.Spawn(core, func(c *cpu.Core) {
				c.Compute(10 * (core + 1))
				c.Store(m.Mem.AllocWords(1), uint64(data[core]))
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if got == nil && raceEnabled {
		t.Skip(raceDrops)
	}
	if got != m {
		t.Fatal("the finished machine was not pooled")
	}
	giveUp := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
		case <-giveUp:
			t.Fatal("a pooled machine still reaches the program's data")
		}
	}
	runtime.KeepAlive(got)
}

// TestRecycledNewIsCheap: New of a released 64-core machine allocates
// almost nothing; a fresh one is 0.39 MB in 394 objects
// (TestNewIsCheap).
func TestRecycledNewIsCheap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	cfg := mustCfg(t, "bT/HCC-DTS-gwb")
	cycle := func() {
		m := New(cfg)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	onOneP(t)
	cycle()
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	objs := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	t.Logf("New+Release of a released %s: %.0f bytes, %.0f objects", cfg.Name, bytes, objs)
	if bytes >= 1024 || objs >= 8 {
		t.Fatalf("New of a released %s allocates %.0f bytes in %.0f objects, want under 1 KB and 8",
			cfg.Name, bytes, objs)
	}
}

// TestNewReleaseFromTwoGoroutines: two goroutines building, running and
// releasing machines of one shape share its pool (run under -race).
func TestNewReleaseFromTwoGoroutines(t *testing.T) {
	cfg := mustCfg(t, "bT8/HCC-DTS-gwb")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := New(cfg)
				a := m.Mem.AllocWords(1)
				m.Spawn(0, func(c *cpu.Core) { c.Compute(10); c.Store(a, uint64(i)) })
				if err := m.Run(); err != nil {
					t.Error(err)
					return
				}
				if got := m.Cache.DebugReadWord(a); got != uint64(i) || m.Kernel.Now() == 0 {
					t.Errorf("run %d read %d at cycle %d", i, got, m.Kernel.Now())
					return
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMachineNew: building the 64-core machine against taking a
// released one (New, an empty run, Release).
func BenchmarkMachineNew(b *testing.B) {
	cfg, err := Lookup("bT/HCC-DTS-gwb")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Fresh(cfg)
		}
	})
	b.Run("recycled", func(b *testing.B) {
		cycle := func() {
			m := New(cfg)
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
			m.Release()
		}
		cycle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	})
}
