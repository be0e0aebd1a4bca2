package bench

import (
	"reflect"
	"strings"
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
// truth for wait chains and queued issue: every core drains its queued
// ops through a sim.Proc.WaitChain (cpu.Core.Drain; an idle thief's
// backoff is one too), whose steps the dispatcher walks with the fast
// path on. In paranoid mode no core queues an op: each one blocks, and
// the proc itself waits out every step.
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

// TestQueuedIssueSavesResumes: a test-size cilk5-cs cell on bT/MESI with
// the cores' op queues (and the kernel's fast path and wait chains) on
// takes exactly the waits of the paranoid run, where every op blocks and
// every wait is an event: the paranoid run's events are the queued run's
// events plus its elided waits. Only the switches into the cores'
// threads fall, by at least 40 %.
func TestQueuedIssueSavesResumes(t *testing.T) {
	counts := func(paranoid bool) (scheduled, fired, fastWaits, resumes uint64) {
		prev := sim.KernelParanoid
		sim.KernelParanoid = paranoid
		defer func() { sim.KernelParanoid = prev }()
		s := NewSuite(apps.Test)
		if _, err := s.Run("bT/MESI", "cilk5-cs"); err != nil {
			t.Fatal(err)
		}
		scheduled, fired, fastWaits = s.HostCounters()
		return scheduled, fired, fastWaits, s.Resumes()
	}
	qs, qf, qw, qr := counts(false)
	ps, pf, pw, pr := counts(true)
	if pw != 0 || ps != qs+qw || pf != qf+qw {
		t.Fatalf("paranoid scheduled/fired/elided %d/%d/%d, queued %d/%d/%d: the waits differ",
			ps, pf, pw, qs, qf, qw)
	}
	if qr*10 > pr*6 {
		t.Fatalf("queued issue resumed %d times, paranoid %d: want at least 40 %% fewer", qr, pr)
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
				r, err := RunChaos("cilk5-cs", scenario, 1)
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
// cycles) because a thread is rarely caught in such a window. (The
// kernel's own lines differ between the modes by design: paranoid mode
// queues every wait as an event.)
func TestDeadlineDumpMatchesParanoid(t *testing.T) {
	dump := func(cfgName string, deadline sim.Time, paranoid bool) string {
		prev := sim.KernelParanoid
		sim.KernelParanoid = paranoid
		defer func() { sim.KernelParanoid = prev }()
		cfg, err := machine.Lookup(cfgName)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Deadline = deadline
		app, err := apps.ByName("cilk5-cs")
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(cfg)
		rt := wsrt.New(m, wsrt.AutoVariant(m))
		rt.Grain = grainFor(app, 0)
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
	for _, cfgName := range []string{"bT8/HCC-DTS-gwb", "bT8/HCC-gwb"} {
		for deadline := sim.Time(500); deadline <= 20000; deadline += 151 {
			if queued, slow := dump(cfgName, deadline, false), dump(cfgName, deadline, true); queued != slow {
				t.Fatalf("%s at deadline %d:\nqueued:\n%s\nparanoid:\n%s", cfgName, deadline, queued, slow)
			}
		}
	}
}
