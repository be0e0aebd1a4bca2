// Command paperbench regenerates the paper's tables and figures.
//
// Usage:
//
//	paperbench [-size test|ref|big] [-apps a,b,c] [-grain N] [-j N]
//	           [-faults s1,s2] [-fault-seed N] [-deadline cycles]
//	           [-cpuprofile f] [-memprofile f] [-v] [targets...]
//	paperbench trajectory [-bench-history BENCH.json] [-o docs/bench.html] [RESULT.json ...]
//
// Targets: table3 table4 table5 fig4 fig5 fig6 fig7 fig8 uli energy
// chaos open view all (default: all except table5, which simulates a
// 256-core system and is the most expensive target, and chaos/open/
// view, which are robustness sweeps and a per-app listing rather than
// paper artifacts). An unknown target is an error before anything
// runs. The view target prints each app's Cilkview analysis (work,
// span, parallelism, instructions per task) at -size and -grain; -grain
// sets the task granularity of every target, as btsim's does. The chaos
// target runs every selected app under each fault-injection scenario
// on a small DTS machine and checks the outputs still match the serial
// reference; it always uses test-size inputs regardless of -size. The
// open target sweeps open-system serving load (seeded arrivals, latency
// percentiles, shedding) across coherence configs with and without
// fault injection; -open-json exports the cells.
//
// The trajectory subcommand appends the untraced runs of the given
// `go run ./benchmark -out` result files to the BENCH.json trajectory
// (one entry per host and commit, one series per workload and
// end-to-end metric of BENCHMARK.json, run from the repository root),
// then renders the trajectory as a self-contained static HTML page
// (inline SVG, no scripts or external assets).
//
// The 143 simulations behind the full evaluation are independent, so
// paperbench fans them out over -j host workers (default: all host
// cores) before rendering; tables and figures are always rendered
// serially from the warmed cache, so the output is byte-identical at
// any -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/openload"
	"bigtiny/internal/sim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trajectory" {
		os.Exit(trajectory(os.Args[2:]))
	}
	os.Exit(run())
}

// trajectory imports benchmark result files into the BENCH.json
// trajectory and renders it to a static, self-contained HTML page
// (inline SVG charts, no scripts). With no files it only renders.
func trajectory(args []string) int {
	fs := flag.NewFlagSet("paperbench trajectory", flag.ContinueOnError)
	history := fs.String("bench-history", "BENCH.json", "trajectory file to append to and render")
	out := fs.String("o", "docs/bench.html", "output HTML file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		spec, err := bench.LoadBenchSpec("BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench trajectory:", err)
			return 1
		}
		added, err := bench.ImportResults(*history, spec, fs.Args(), time.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench trajectory:", err)
			return 1
		}
		for _, a := range added {
			fmt.Printf("%s: %s @ %s: %d series (%s)\n", *history, a.Suite, a.Entry.Commit.ID, len(a.Entry.Benches), a.Entry.Commit.Message)
		}
	}
	traj, err := bench.LoadTrajectory(*history)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench trajectory:", err)
		return 1
	}
	if err := bench.WriteTrajectoryHTML(*out, traj, *history); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench trajectory:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return 0
}

func run() int {
	size := flag.String("size", "ref", "input size: test, ref, or big")
	appList := flag.String("apps", "", "comma-separated app subset (default: all 13)")
	grain := flag.Int("grain", 0, "task granularity override for every target (0 = app default)")
	jobs := flag.Int("j", 0, "host workers for the simulation fan-out (0 = all host cores, 1 = serial)")
	verbose := flag.Bool("v", false, "print per-run progress")
	noVerify := flag.Bool("no-verify", false, "skip output verification after each run")
	jsonOut := flag.String("json", "", "also dump all collected metrics as JSON to this file")
	faultList := flag.String("faults", "",
		"comma-separated fault scenarios for the chaos target (default: the built-in sweep set)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection RNG seed for the chaos target")
	deadline := flag.Uint64("deadline", 0,
		"per-run simulated-cycle deadline; a run past it fails with a machine-state dump (0 = each config's watchdog default)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	openJSON := flag.String("open-json", "",
		"also dump the open target's sweep results as JSON to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
			f.Close()
		}()
	}

	var chaosScenarios []string
	if *faultList != "" {
		chaosScenarios = strings.Split(*faultList, ",")
		for _, sc := range chaosScenarios {
			if err := (openload.Options{Scenario: sc}).Check(); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return 2
			}
		}
	}

	sz, err := apps.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		return 2
	}
	if err := apps.CheckGrain(*grain); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		return 2
	}

	names := bench.AppNames()
	if *appList != "" {
		names = strings.Split(*appList, ",")
		for _, n := range names {
			if _, err := apps.ByName(n); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return 2
			}
		}
	}

	targets := flag.Args()
	for _, t := range targets {
		if strings.HasPrefix(t, "-") {
			fmt.Fprintf(os.Stderr, "paperbench: flag %q given after targets; flags must precede targets\n", t)
			return 2
		}
	}
	if len(targets) == 0 {
		targets = []string{"table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8", "uli", "energy"}
	}
	if len(targets) == 1 && targets[0] == "all" {
		targets = []string{"table3", "table4", "table5", "fig4", "fig5", "fig6", "fig7", "fig8", "uli", "energy"}
	}

	// -open-json, -faults and -fault-seed each serve one target; flag
	// them loudly when they would otherwise be silently ignored.
	openSelected := slices.Contains(targets, "open")
	for _, f := range []struct {
		set          bool
		name, target string
	}{
		{*openJSON != "", "-open-json", "open"},
		{*faultList != "", "-faults", "chaos"},
		{*faultSeed != 1, "-fault-seed", "chaos"},
	} {
		if f.set && !slices.Contains(targets, f.target) {
			fmt.Fprintf(os.Stderr, "paperbench: warning: %s only affects the %s target, which is not selected; ignoring it\n", f.name, f.target)
		}
	}

	s := bench.NewSuite(sz)
	s.Grain = *grain
	s.Verify = !*noVerify
	s.Env.Deadline = sim.Time(*deadline)
	if *verbose {
		s.Progress = os.Stderr
	}

	// Collect the cells every selected target reads and warm them over
	// the host worker pool; the render loop below then draws from the
	// cache in fixed order. A name that is neither in bench.Targets nor
	// chaos is a typo, refused before anything runs. Prewarm errors are
	// not fatal here — the owning target re-encounters them serially
	// and reports them with its usual context.
	var work []bench.Work
	for _, t := range targets {
		render, ok := bench.Targets[t]
		if !ok && t != "chaos" {
			fmt.Fprintf(os.Stderr, "paperbench: unknown target %q\n", t)
			return 2
		}
		if ok {
			work = append(work, s.Cells(render, names)...)
		}
	}
	if err := s.Prewarm(work, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench: warning:", err)
	}

	out := os.Stdout
	for _, t := range targets {
		var err error
		if t == "chaos" {
			err = bench.Chaos(out, names, chaosScenarios, *faultSeed, *jobs)
		} else {
			err = bench.Targets[t](s, out, names)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		fmt.Fprintln(out)
	}

	if *verbose {
		scheduled, fired, fastWaits := s.HostCounters()
		fmt.Fprintf(os.Stderr, "paperbench: kernel: %d events scheduled, %d fired, %d waits elided, %d coroutine resumes\n",
			scheduled, fired, fastWaits, s.Resumes())
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := s.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
	}
	if *openJSON != "" && openSelected {
		f, err := os.Create(*openJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := s.WriteOpenJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
	}
	return 0
}
