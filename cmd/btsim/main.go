// Command btsim runs one application kernel on one simulated machine
// configuration and reports performance counters.
//
// Usage:
//
//	btsim -config bT/HCC-DTS-gwb -app ligra-bfs [-size ref] [-grain N] [-deadline cycles]
//	btsim -config bT8/HCC-DTS-gwb -app ligra-bfs -faults chaos-all [-fault-seed N]
//	btsim -config bT8/HCC-DTS-gwb -app ligra-bfs -faults lossy-uli -oracle
//	btsim -open -config bT8/HCC-DTS-gwb -workload rmat-query -arrival bursty -rate 8 -requests 64
//	btsim -list-configs
//	btsim -list-apps
//	btsim -list-faults
//
// With -open, btsim runs an open-system serving experiment instead of
// a closed-loop kernel: requests arrive on a seeded schedule (-arrival,
// -rate per 1000 cycles, -requests total), each spawns the -workload
// task DAG (rmat-query, the one workload), and the report is
// shed/completed accounting plus exact end-to-end latency percentiles.
// -faults/-fault-seed/-oracle/-deadline compose with -open;
// -app/-size/-grain do not apply.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/energy"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/openload"
	"bigtiny/internal/sim"
	"bigtiny/internal/stats"
	"bigtiny/internal/trace"
)

func main() {
	cfgName := flag.String("config", "bT/MESI", "machine configuration")
	appName := flag.String("app", "cilk5-cs", "application kernel")
	size := flag.String("size", "ref", "input size: test, ref, or big")
	grain := flag.Int("grain", 0, "task granularity override (0 = app default)")
	listConfigs := flag.Bool("list-configs", false, "list machine configurations")
	listApps := flag.Bool("list-apps", false, "list application kernels")
	listFaults := flag.Bool("list-faults", false, "list fault-injection scenarios")
	faults := flag.String("faults", "", "fault-injection scenario (see -list-faults)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection RNG seed")
	oracleOn := flag.Bool("oracle", false, "shadow the run with the memory-ordering oracle")
	deadline := flag.Uint64("deadline", 0,
		"simulated-cycle deadline; the run fails with a machine-state dump past it (0 = config watchdog default)")
	traceFile := flag.String("trace", "", "write a cycle-stamped scheduler trace to this file")
	openMode := flag.Bool("open", false, "run an open-system serving experiment instead of a closed-loop kernel")
	workload := flag.String("workload", "rmat-query", "open-system per-request workload: rmat-query")
	arrival := flag.String("arrival", "poisson", "open-system arrival process: poisson, bursty, or diurnal")
	rate := flag.Float64("rate", 4, "open-system offered load, requests per 1000 cycles")
	requests := flag.Int("requests", 64, "open-system total arrivals")
	openSeed := flag.Uint64("open-seed", 1, "open-system arrival-schedule and request-parameter seed")
	inflight := flag.Int("inflight", 0, "open-system admission bound; arrivals past it are shed (0 = 4x threads)")
	horizon := flag.Uint64("horizon", 0, "open-system drain bound in cycles past the last arrival (0 = drain fully)")
	flag.Parse()

	if *listFaults {
		for _, sc := range fault.Scenarios() {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Desc)
		}
		return
	}
	if *listConfigs {
		for _, n := range machine.Names() {
			cfg, _ := machine.Lookup(n)
			fmt.Printf("%-18s %3d big + %3d tiny (%s), %dx%d mesh, %d banks, DTS=%v\n",
				n, cfg.NumBig, cfg.NumTiny, cfg.TinyProto, cfg.Rows, cfg.Cols,
				cfg.NumBanks, cfg.DTS)
		}
		return
	}
	if *listApps {
		for _, a := range apps.All() {
			fmt.Printf("%-14s method=%s default-grain=%d\n", a.Name, a.Method, a.DefaultGrain)
		}
		return
	}

	// Check every setting before any simulation work (with -open too,
	// where -app/-size/-grain go unused): a typo in a name should not
	// silently run something else for minutes.
	env := openload.Options{Scenario: *faults, FaultSeed: *faultSeed, Oracle: *oracleOn, Deadline: sim.Time(*deadline)}
	sz, err := bench.Check(*cfgName, *appName, *size, *grain, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btsim:", err)
		os.Exit(2)
	}

	if *openMode {
		runOpen(*cfgName, openload.Spec{
			Workload:    *workload,
			Arrival:     *arrival,
			RatePerK:    *rate,
			Requests:    *requests,
			Seed:        *openSeed,
			MaxInFlight: *inflight,
			Horizon:     sim.Time(*horizon),
		}, env)
		return
	}

	s := bench.NewSuite(sz)
	s.Grain = *grain
	s.Env = env
	if *traceFile != "" {
		s.Tracer = &trace.Recorder{Limit: 2_000_000}
	}
	r, err := s.Run(*cfgName, *appName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btsim:", err)
		os.Exit(1)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "btsim:", err)
			os.Exit(1)
		}
		if _, err := s.Tracer.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "btsim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "btsim:", err)
			os.Exit(1)
		}
		fmt.Printf("trace      : %d events -> %s\n", len(s.Tracer.Events), *traceFile)
	}

	fmt.Printf("app        : %s (size %s)\n", r.App, sz)
	fmt.Printf("config     : %s\n", r.Config)
	fmt.Printf("cycles     : %d\n", r.Cycles)
	fmt.Printf("insts      : %d\n", r.Insts)
	fmt.Printf("tiny time  : %s\n", stats.BreakdownString(r.TinyBreakdown))
	fmt.Printf("big time   : %s\n", stats.BreakdownString(r.BigBreakdown))
	fmt.Printf("L1D tiny   : hit rate %.3f (%d loads, %d stores, %d AMOs)\n",
		r.TinyHitRate(), r.L1Tiny.Loads, r.L1Tiny.Stores, r.L1Tiny.Amos)
	fmt.Printf("inv/flush  : %d lines invalidated, %d lines flushed\n",
		r.L1Tiny.InvLines, r.L1Tiny.FlushLines)
	fmt.Printf("L2         : %d hits, %d misses, %d recalls, %d at-L2 AMOs\n",
		r.L2.Hits, r.L2.Misses, r.L2.Recalls, r.L2.AmoOps)
	fmt.Printf("DRAM       : %d line reads, %d line writes\n", r.DRAMReads, r.DRAMWrites)
	fmt.Printf("NoC        : %d bytes (avg %.1f hops)\n", r.Traffic.TotalBytes(), r.AvgHops)
	fmt.Printf("NoC util   : max %.2f%%, mean %.2f%% of link cycles\n", 100*r.NoCMaxUtil, 100*r.NoCMeanUtil)
	fmt.Printf("  %s\n", stats.TrafficString(&r.Traffic))
	if r.ULI != nil {
		fmt.Printf("ULI        : %d reqs, %d acks, %d nacks, %d drops, avg latency %.1f cycles, max util %.2f%%\n",
			r.ULI.Reqs, r.ULI.Acks, r.ULI.Nacks, r.ULI.Drops, r.ULIAvgLatency, 100*r.ULIMeshMaxUtil)
		if r.ULI.Timeouts > 0 || r.ULI.LateAcks > 0 || r.ULI.Restitutions > 0 {
			fmt.Printf("ULI loss   : %d timeouts, %d late acks salvaged, %d restitutions\n",
				r.ULI.Timeouts, r.ULI.LateAcks, r.ULI.Restitutions)
		}
	}
	if *faults != "" {
		fmt.Printf("faults     : scenario %s, seed %d: %s (%d total)\n",
			*faults, env.Seed(), r.FaultSummary, r.FaultTotal)
	}
	if *oracleOn {
		fmt.Printf("oracle     : %d memory operations checked, 0 violations\n", r.OracleOps)
	}
	fmt.Printf("runtime    : %v\n", r.RT)
	fmt.Printf("energy     : %.1f uJ (proxy)\n", energy.DefaultModel().Estimate(r))
}

// runOpen executes one open-system experiment and prints the serving
// report. openload.Run asserts the accounting identity internally, so
// a violated identity (or a wrong request answer) exits nonzero here.
func runOpen(cfgName string, sp openload.Spec, opt openload.Options) {
	r, err := openload.Run(context.Background(), cfgName, sp, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btsim:", err)
		os.Exit(1)
	}
	fmt.Printf("workload   : %s (%s arrivals, rate %g/kcycle, seed %d)\n",
		sp.Workload, sp.Arrival, sp.RatePerK, sp.Seed)
	fmt.Printf("config     : %s\n", r.Config)
	fmt.Printf("cycles     : %d\n", r.Cycles)
	fmt.Printf("identity   : arrived %d = completed %d + shed %d + in-flight %d\n",
		r.Arrived, r.Completed, r.Shed, r.InFlightAtEnd)
	fmt.Printf("drained    : %v\n", r.Drained)
	fmt.Printf("offered    : %.3f req/kcycle, throughput %.3f req/kcycle\n",
		r.OfferedPerKCycle, r.ThroughputPerKCycle)
	if r.Completed > 0 {
		fmt.Printf("latency    : p50 %d, p90 %d, p99 %d, p999 %d, max %d cycles (mean %.1f)\n",
			r.Latency.P50(), r.Latency.P90(), r.Latency.P99(), r.Latency.P999(),
			r.Latency.Max(), r.Latency.Mean())
	}
	if opt.Scenario != "" {
		fmt.Printf("faults     : scenario %s, seed %d: %d total\n",
			opt.Scenario, opt.Seed(), r.FaultTotal)
	}
	if opt.Oracle {
		fmt.Printf("oracle     : %d memory operations checked, 0 violations\n", r.OracleOps)
	}
	fmt.Printf("runtime    : %v\n", r.RT)
}
