package machine_test

import (
	"reflect"
	"runtime"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/stats"
	"bigtiny/internal/wsrt"
)

// cell is what one simulation leaves behind: its statistics and the
// kernel's host counters.
type cell struct {
	run                                  *stats.Run
	scheduled, fired, fastWaits, resumes uint64
}

// runCell simulates app at unit size on m, as bench.Suite does, and
// verifies its output.
func runCell(t *testing.T, m *machine.Machine, appName string) cell {
	t.Helper()
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = app.DefaultGrain
	inst := app.Setup(rt, apps.Unit, 0)
	root := inst.Root
	if m.Cfg.Name == "IOx1" {
		root = inst.SerialRoot
	}
	if err := rt.Run(root); err != nil {
		t.Fatalf("%s on %s: %v", appName, m.Cfg.Name, err)
	}
	if err := inst.Verify(func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }); err != nil {
		t.Fatalf("%s on %s: verify: %v", appName, m.Cfg.Name, err)
	}
	k := m.Kernel
	return cell{stats.Collect(m, rt, appName), k.Scheduled(), k.Fired(), k.FastWaits(), k.Resumes()}
}

// TestRecycledEqualsFresh: a machine that New took from the pool, reset
// after it ran another program, simulates every app at unit size
// exactly as a freshly built one does, on every shipped configuration
// and on the 8-core one under every fault class with the oracle on.
func TestRecycledEqualsFresh(t *testing.T) {
	// One P: a released machine waits in that P's slot of the pool, so
	// the next New of its shape gets it back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfgs := []machine.Config{}
	for _, name := range machine.Names() {
		cfg, err := machine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	chaos, err := machine.Lookup("bT8/HCC-DTS-gwb")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.Lookup("chaos-lossy-all")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Name += "+chaos-lossy-all"
	chaos.Faults, chaos.FaultSeed, chaos.Oracle = &sc, 3, true
	cfgs = append(cfgs, chaos)

	appNames := bench.AppNames()
	if machine.RaceEnabled() {
		appNames = appNames[:2]
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			machine.Drain(cfg)
			var released *machine.Machine
			for _, app := range appNames {
				want := runCell(t, machine.Fresh(cfg), app)
				m := machine.New(cfg)
				// Under -race sync.Pool drops a quarter of what it is
				// given, at random.
				if released != nil && m != released && !machine.RaceEnabled() {
					t.Fatalf("%s: New built a machine with one of its shape released", app)
				}
				got := runCell(t, m, app)
				if !reflect.DeepEqual(got.run, want.run) {
					t.Fatalf("%s: recycled machine's stats differ:\n got %+v\nwant %+v", app, got.run, want.run)
				}
				got.run, want.run = nil, nil
				if got != want {
					t.Fatalf("%s: kernel counters differ: got %+v want %+v", app, got, want)
				}
				m.Release()
				released = m
			}
		})
	}
}

// TestSecondCellIsCheap: once a cell has released its machine, the
// next cell of the same configuration and size builds almost nothing:
// what it allocates is the program's own (runtime, app inputs, procs,
// statistics), not the machine. A fresh cell allocates about 0.7 MB;
// this one 46 KB in 1 269 objects when machines were first recycled,
// and 44 KB in 1 142 once each core kept its drain chain and each
// machine its proc names (two objects a core fewer).
func TestSecondCellIsCheap(t *testing.T) {
	if machine.RaceEnabled() {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	// One P for the warm-up cell too, so the machine it releases waits
	// in the slot of the P that AllocsPerRun runs on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cell := func() {
		if _, err := bench.NewSuite(apps.Unit).Run("bT/HCC-DTS-gwb", "cilk5-cs"); err != nil {
			t.Fatal(err)
		}
	}
	cell()
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	objs := testing.AllocsPerRun(runs, cell)
	runtime.ReadMemStats(&m1)
	kb := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1) / 1024
	t.Logf("second unit cell: %.0f KB in %.0f objects", kb, objs)
	if kb >= 100 || objs >= 1500 {
		t.Fatalf("a unit cell on a released machine allocates %.0f KB in %.0f objects, want under 100 KB and 1500", kb, objs)
	}
}
