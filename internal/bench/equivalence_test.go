package bench

import (
	"reflect"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
	"bigtiny/internal/wsrt"
)

// runKernelMode performs one complete simulation with the WaitUntil
// fast path on or off (sim.KernelParanoid is read at NewKernel time,
// inside machine.New) and returns the full metric snapshot.
func runKernelMode(t *testing.T, cfgName, appName string, size apps.Size, paranoid bool) *stats.Run {
	t.Helper()
	prev := sim.KernelParanoid
	sim.KernelParanoid = paranoid
	defer func() { sim.KernelParanoid = prev }()

	cfg, err := machine.Lookup(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cfg)
	rt := wsrt.New(m, wsrt.AutoVariant(m))
	rt.Grain = grainFor(app, 0)
	inst := app.Setup(rt, size, 0)
	root := inst.Root
	if cfgName == "IOx1" {
		root = inst.SerialRoot
	}
	if err := rt.Run(root); err != nil {
		t.Fatalf("%s on %s (paranoid=%v): %v", appName, cfgName, paranoid, err)
	}
	read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
	if err := inst.Verify(read); err != nil {
		t.Fatalf("%s on %s (paranoid=%v): verify: %v", appName, cfgName, paranoid, err)
	}
	return stats.Collect(m, rt, appName)
}

// TestFastPathMatchesParanoid is the kernel fast path's ground truth:
// every app, at the Empty and Unit sizes, on a DTS and a non-DTS
// configuration, must produce bit-identical results with the fast path
// on and off — total cycles, the per-class cycle attribution big and
// tiny, and every other collected statistic (cache, NoC, DRAM, ULI,
// runtime counters). Any divergence means the wait elision changed the
// simulation, not just its host speed. The same pairs are the ground
// truth for wait chains: every idle thief's backoff is a
// sim.Proc.WaitChain (cpu.Core.Spin), whose steps the dispatcher walks
// with the fast path on and the proc itself runs in paranoid mode.
func TestFastPathMatchesParanoid(t *testing.T) {
	configs := []string{"bT/HCC-DTS-gwb", "bT/HCC-gwt"}
	for _, size := range []apps.Size{apps.Empty, apps.Unit} {
		for _, cfgName := range configs {
			for _, appName := range AppNames() {
				t.Run(size.String()+"/"+cfgName+"/"+appName, func(t *testing.T) {
					fast := runKernelMode(t, cfgName, appName, size, false)
					slow := runKernelMode(t, cfgName, appName, size, true)
					if fast.Cycles != slow.Cycles {
						t.Fatalf("total cycles: fast=%d paranoid=%d", fast.Cycles, slow.Cycles)
					}
					if fast.TinyBreakdown != slow.TinyBreakdown {
						t.Fatalf("tiny breakdown: fast=%v paranoid=%v",
							fast.TinyBreakdown, slow.TinyBreakdown)
					}
					if fast.BigBreakdown != slow.BigBreakdown {
						t.Fatalf("big breakdown: fast=%v paranoid=%v",
							fast.BigBreakdown, slow.BigBreakdown)
					}
					if !reflect.DeepEqual(fast, slow) {
						t.Fatalf("stats diverge:\nfast:     %+v\nparanoid: %+v", fast, slow)
					}
				})
			}
		}
	}
}

// TestFastPathMatchesParanoidTestSize spot-checks one real (Test-size)
// workload per runtime variant, where thousands of waits actually ride
// the fast path, not just the degenerate base cases.
func TestFastPathMatchesParanoidTestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full Test-size equivalence runs are not short")
	}
	for _, cfgName := range []string{"bT/HCC-DTS-gwb", "bT/MESI", "IOx1"} {
		t.Run(cfgName, func(t *testing.T) {
			fast := runKernelMode(t, cfgName, "cilk5-cs", apps.Test, false)
			slow := runKernelMode(t, cfgName, "cilk5-cs", apps.Test, true)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("stats diverge:\nfast:     %+v\nparanoid: %+v", fast, slow)
			}
		})
	}
}
