package bench

import (
	"reflect"
	"strings"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/cache"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
	"bigtiny/internal/wsrt"
)

// runKernelMode performs one complete simulation with the WaitUntil
// fast path on or off (machine.New builds, or takes from the pool, a
// machine whose kernel and cores read sim.KernelParanoid as it is now)
// and returns the full metric snapshot.
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
// every app, at the Empty and Unit sizes, on a configuration of each
// runtime row (DTS, HCC, and HW on MESI, whose scheduling loop takes
// the deque lock and no fence), must produce bit-identical results with
// the fast path on and off — total cycles, the per-class cycle
// attribution big and tiny, and every other collected statistic (cache,
// NoC, DRAM, ULI, runtime counters). Any divergence means the wait
// elision changed the simulation, not just its host speed. The same
// pairs are the ground truth for wait chains, queued issue and the
// scheduling loop's steps: every core drains its queued ops through a
// sim.Proc.WaitChain (cpu.Core.Drain), whose steps the dispatcher walks
// with the fast path on, and an idle thread's failed rounds run as
// steps of that chain (cpu.Core.Drive). In paranoid mode no core queues
// an op: each one blocks, and the thread runs every step itself.
func TestFastPathMatchesParanoid(t *testing.T) {
	configs := []string{"bT/HCC-DTS-gwb", "bT/HCC-gwt", "bT/MESI"}
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

// TestQueuedIssueSavesResumes: a cell with the cores' op queues (and the
// kernel's fast path and wait chains, and the scheduling loop's steps)
// on takes exactly the waits of the paranoid run, where every op blocks
// and every wait is an event: the paranoid run's events are the queued
// run's events plus its elided waits. Only the switches into the cores'
// threads fall: to at most 15 % of the paranoid run's on a test-size
// cilk5-cs cell on bT/MESI and on a unit-size one on the 64-core DTS
// machine, and to at most 12 % on the unit-size HCC one. The mostly idle
// workers of a unit cell run the loop's failed rounds (lock AMOs,
// fences, ULI requests) without a switch: what is left is about one
// start and one exit per thread, the tasks, and the ULI handlers.
func TestQueuedIssueSavesResumes(t *testing.T) {
	counts := func(size apps.Size, cfgName string, paranoid bool) (scheduled, fired, fastWaits, resumes uint64) {
		prev := sim.KernelParanoid
		sim.KernelParanoid = paranoid
		defer func() { sim.KernelParanoid = prev }()
		s := NewSuite(size)
		if _, err := s.Run(cfgName, "cilk5-cs"); err != nil {
			t.Fatal(err)
		}
		scheduled, fired, fastWaits = s.HostCounters()
		return scheduled, fired, fastWaits, s.Resumes()
	}
	for _, cell := range []struct {
		size       apps.Size
		cfg        string
		maxPercent uint64
	}{
		{apps.Test, "bT/MESI", 15},
		{apps.Unit, "bT/HCC-DTS-gwb", 15},
		{apps.Unit, "bT/HCC-gwb", 12},
	} {
		qs, qf, qw, qr := counts(cell.size, cell.cfg, false)
		ps, pf, pw, pr := counts(cell.size, cell.cfg, true)
		if pw != 0 || ps != qs+qw || pf != qf+qw {
			t.Fatalf("%s %s: paranoid scheduled/fired/elided %d/%d/%d, queued %d/%d/%d: the waits differ",
				cell.size, cell.cfg, ps, pf, pw, qs, qf, qw)
		}
		t.Logf("%s %s: %d resumes queued, %d paranoid (%.1f %%)", cell.size, cell.cfg, qr, pr, float64(qr)*100/float64(pr))
		if qr*100 > pr*cell.maxPercent {
			t.Fatalf("%s %s: queued issue resumed %d times, paranoid %d: want at most %d %%",
				cell.size, cell.cfg, qr, pr, cell.maxPercent)
		}
	}
}

// TestChaosQueuedMatchesParanoid: under the lossy scenarios, where the
// runtime reads Go state other cores write (offlineMark, the quarantine
// table) and hands tasks around through the ULI salvage and restitute
// hooks, queued issue must still match paranoid blocking issue in every
// statistic, fault and recovery counts included.
func TestChaosQueuedMatchesParanoid(t *testing.T) {
	for _, scenario := range []string{"lossy-uli", "core-loss", "chaos-lossy-all"} {
		t.Run(scenario, func(t *testing.T) {
			run := func(paranoid bool) *stats.Run {
				prev := sim.KernelParanoid
				sim.KernelParanoid = paranoid
				defer func() { sim.KernelParanoid = prev }()
				r, err := new(Suite).RunChaos("cilk5-cs", scenario, 1)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			if queued, slow := run(false), run(true); !reflect.DeepEqual(queued, slow) {
				t.Fatalf("stats diverge:\nqueued:   %+v\nparanoid: %+v", queued, slow)
			}
		})
	}
}

// TestDeadlineDumpMatchesParanoid: a run stopped mid-flight by its
// deadline dumps the runtime and ULI state — run counters, unit
// latches, deque occupancy — that paranoid blocking issue dumps at the
// same cycle. A thread runs ahead of its queued ops only through Go
// code that no dump reads. The deadlines are dense (one every 151
// cycles) because a thread is rarely caught in such a window. The
// sweeps cover each runtime row (DTS, HCC with GPU-WB and with DeNovo
// tiny cores, HW on MESI) and DTS under lossy-uli, whose recovery
// hooks run on the thread. (The kernel's own lines differ between the
// modes by design: paranoid mode queues every wait as an event.)
func TestDeadlineDumpMatchesParanoid(t *testing.T) {
	dump := func(cfg machine.Config, deadline sim.Time, paranoid bool) string {
		prev := sim.KernelParanoid
		sim.KernelParanoid = paranoid
		defer func() { sim.KernelParanoid = prev }()
		cfg.Deadline = deadline
		app, err := apps.ByName("cilk5-cs")
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(cfg)
		rt := wsrt.New(m, wsrt.AutoVariant(m))
		err = rt.Run(app.Setup(rt, apps.Test, 0).Root)
		if err == nil {
			return "finished"
		}
		var keep []string
		for _, line := range strings.Split(err.Error(), "\n") {
			if !strings.HasPrefix(line, "kernel:") && !strings.HasPrefix(line, "  proc ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	lookup := func(name string) machine.Config {
		cfg, err := machine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	dnv := lookup("bT8/HCC-gwb")
	dnv.TinyProto, dnv.Name = cache.DeNovo, "bT8/HCC-dnv"
	lossy := lookup("bT8/HCC-DTS-gwb")
	sc, err := fault.Lookup("lossy-uli")
	if err != nil {
		t.Fatal(err)
	}
	lossy.Faults, lossy.FaultSeed, lossy.Name = &sc, 1, "bT8/HCC-DTS-gwb under lossy-uli"
	for _, cfg := range []machine.Config{lookup("bT8/HCC-DTS-gwb"), lookup("bT8/HCC-gwb"), lookup("bT8/MESI"), dnv, lossy} {
		for deadline := sim.Time(500); deadline <= 20000; deadline += 151 {
			if queued, slow := dump(cfg, deadline, false), dump(cfg, deadline, true); queued != slow {
				t.Fatalf("%s at deadline %d:\nqueued:\n%s\nparanoid:\n%s", cfg.Name, deadline, queued, slow)
			}
		}
	}
}
