package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"bigtiny/internal/apps"
	"bigtiny/internal/openload"
)

// This file is the open-system serving view of the suite: seeded
// arrival processes drive requests into the simulated machine and the
// deliverable is a latency-throughput curve per coherence
// configuration, with and without fault injection — the graceful-
// degradation picture a closed-loop (run-to-completion) benchmark
// cannot show.

// OpenRun executes (or recalls) one open-system cell. The scenario and
// fault seed are per-cell — the sweep wants the same offered load with
// and without chaos side by side — so they are arguments, not suite
// fields. Results are cached and deduplicated like Run's.
func (s *Suite) OpenRun(cfgName, scenario string, faultSeed uint64, sp openload.Spec) (*openload.Result, error) {
	return s.OpenRunCtx(context.Background(), cfgName, scenario, faultSeed, sp)
}

// OpenRunCtx is OpenRun with cancellation, with RunCtx's semantics.
func (s *Suite) OpenRunCtx(ctx context.Context, cfgName, scenario string, faultSeed uint64, sp openload.Spec) (*openload.Result, error) {
	return memo[*openload.Result](ctx, s, openWork(cfgName, scenario, faultSeed, sp))
}

// openWork is the Work item of one open-system cell.
func openWork(cfgName, scenario string, faultSeed uint64, sp openload.Spec) Work {
	return Work{Cfg: cfgName, Open: &sp, OpenScenario: scenario, OpenFaultSeed: faultSeed}
}

// simulateOpen runs one open-system cell under its own fault scenario
// and the suite's oracle and deadline settings.
func (s *Suite) simulateOpen(ctx context.Context, w Work) (*openload.Result, error) {
	sp := *w.Open
	if s.SimHook != nil {
		s.SimHook(w.Cfg, "open:"+sp.Workload)
	}
	env := s.Env
	env.Scenario, env.FaultSeed = w.OpenScenario, w.OpenFaultSeed
	r, err := openload.Run(ctx, w.Cfg, sp, env)
	if err != nil {
		return nil, err
	}
	scen := w.OpenScenario
	if scen == "" {
		scen = "none"
	}
	s.progress("open %-10s on %-16s rate %5.1f %-16s: p99 %9d (%d/%d/%d)\n",
		sp.Workload, w.Cfg, sp.RatePerK, scen,
		r.Latency.P99(), r.Completed, r.Shed, r.InFlightAtEnd)
	return r, nil
}

// OpenSweep enumerates an open-system experiment grid: every config x
// offered rate x fault scenario, at a fixed workload and arrival
// process.
type OpenSweep struct {
	Configs   []string
	Rates     []float64 // offered loads, requests per 1000 cycles
	Scenarios []string  // "" means fault-free; rendered as "none"
	Workload  string
	Arrival   string
	Requests  int
	Seed      uint64
	FaultSeed uint64
}

// DefaultOpenSweep is the grid `paperbench open` renders: three
// coherence configurations (MESI, software HCC, HCC+DTS on the 8-core
// machine), three offered loads spanning under- to overload, and the
// fault-free/lossy-uli/core-loss/chaos scenarios.
func DefaultOpenSweep(size apps.Size) OpenSweep {
	requests := 64
	switch size {
	case apps.Ref:
		requests = 256
	case apps.Big:
		requests = 512
	case apps.Empty:
		requests = 8
	case apps.Unit:
		requests = 16
	}
	return OpenSweep{
		Configs:   []string{"bT8/MESI", "bT8/HCC-gwb", "bT8/HCC-DTS-gwb"},
		Rates:     []float64{1, 4, 16},
		Scenarios: []string{"", "lossy-uli", "core-loss", "chaos-lossy-all"},
		Workload:  "rmat-query",
		Arrival:   "poisson",
		Requests:  requests,
		Seed:      1,
		FaultSeed: 1,
	}
}

// spec builds the cell spec for one offered rate.
func (sw OpenSweep) spec(rate float64) openload.Spec {
	return openload.Spec{
		Workload: sw.Workload,
		Arrival:  sw.Arrival,
		RatePerK: rate,
		Requests: sw.Requests,
		Seed:     sw.Seed,
	}
}

// Open renders the latency-throughput table for the sweep: one row per
// (config, rate, scenario) cell in a fixed order, so the bytes are
// identical whether the cells were prewarmed in parallel or simulated
// serially here.
func (s *Suite) Open(w io.Writer, sw OpenSweep) error {
	fmt.Fprintf(w, "Open-system serving: %s arrivals, %s, %d requests, seed %d\n",
		sw.Arrival, sw.Workload, sw.Requests, sw.Seed)
	fmt.Fprintf(w, "(latencies in cycles from scheduled arrival to completion; done/shed/inflight must sum to arrivals)\n\n")
	fmt.Fprintf(w, "%-16s %7s %-16s %9s %14s %9s %9s %9s %9s %8s\n",
		"config", "rate/k", "scenario", "thpt/k", "done/shed/inf", "p50", "p90", "p99", "p999", "faults")
	for _, cfg := range sw.Configs {
		for _, rate := range sw.Rates {
			sp := sw.spec(rate)
			for _, scen := range sw.Scenarios {
				r, err := s.OpenRun(cfg, scen, sw.FaultSeed, sp)
				if err != nil {
					return err
				}
				name := scen
				if name == "" {
					name = "none"
				}
				fmt.Fprintf(w, "%-16s %7.1f %-16s %9.3f %14s %9d %9d %9d %9d %8d\n",
					cfg, rate, name, r.ThroughputPerKCycle,
					fmt.Sprintf("%d/%d/%d", r.Completed, r.Shed, r.InFlightAtEnd),
					r.Latency.P50(), r.Latency.P90(), r.Latency.P99(), r.Latency.P999(),
					r.FaultTotal)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// OpenRunJSON is the machine-readable form of one open-system cell.
type OpenRunJSON struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Arrival  string `json:"arrival"`

	RatePerKCycle float64 `json:"rate_per_kcycle"`
	Requests      int     `json:"requests"`
	Seed          uint64  `json:"seed"`
	MaxInFlight   int     `json:"max_inflight,omitempty"`
	Horizon       uint64  `json:"horizon,omitempty"`

	Scenario  string `json:"fault_scenario,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	Arrived       int  `json:"arrived"`
	Completed     int  `json:"completed"`
	Shed          int  `json:"shed"`
	InFlightAtEnd int  `json:"in_flight_at_end"`
	Drained       bool `json:"drained"`

	Cycles uint64 `json:"cycles"`

	LatencyP50  uint64  `json:"latency_p50"`
	LatencyP90  uint64  `json:"latency_p90"`
	LatencyP99  uint64  `json:"latency_p99"`
	LatencyP999 uint64  `json:"latency_p999"`
	LatencyMax  uint64  `json:"latency_max"`
	LatencyMean float64 `json:"latency_mean"`

	OfferedPerKCycle    float64 `json:"offered_per_kcycle"`
	ThroughputPerKCycle float64 `json:"throughput_per_kcycle"`

	FaultTotal     uint64 `json:"fault_total,omitempty"`
	OfflineCores   uint64 `json:"offline_cores,omitempty"`
	Reclaims       uint64 `json:"reclaims,omitempty"`
	Salvages       uint64 `json:"salvages,omitempty"`
	DegradedCycles uint64 `json:"degraded_cycles,omitempty"`
	Spawns         uint64 `json:"spawns"`
	StealHits      uint64 `json:"steal_hits"`
	OracleOps      uint64 `json:"oracle_ops,omitempty"`
}

// openToJSON converts a collected open-system result.
func openToJSON(r *openload.Result) OpenRunJSON {
	return OpenRunJSON{
		Config:   r.Config,
		Workload: r.Spec.Workload,
		Arrival:  r.Spec.Arrival,

		RatePerKCycle: r.Spec.RatePerK,
		Requests:      r.Spec.Requests,
		Seed:          r.Spec.Seed,
		MaxInFlight:   r.Spec.MaxInFlight,
		Horizon:       uint64(r.Spec.Horizon),

		Scenario:  r.Scenario,
		FaultSeed: r.FaultSeed,

		Arrived:       r.Arrived,
		Completed:     r.Completed,
		Shed:          r.Shed,
		InFlightAtEnd: r.InFlightAtEnd,
		Drained:       r.Drained,

		Cycles: uint64(r.Cycles),

		LatencyP50:  r.Latency.P50(),
		LatencyP90:  r.Latency.P90(),
		LatencyP99:  r.Latency.P99(),
		LatencyP999: r.Latency.P999(),
		LatencyMax:  r.Latency.Max(),
		LatencyMean: r.Latency.Mean(),

		OfferedPerKCycle:    r.OfferedPerKCycle,
		ThroughputPerKCycle: r.ThroughputPerKCycle,

		FaultTotal:     r.FaultTotal,
		OfflineCores:   r.RT.OfflineCores,
		Reclaims:       r.RT.Reclaims,
		Salvages:       r.RT.Salvages,
		DegradedCycles: r.RT.DegradedCycles,
		Spawns:         r.RT.Spawns,
		StealHits:      r.RT.StealHits,
		OracleOps:      r.OracleOps,
	}
}

// encodeOpenRuns is the one canonical encoding of open-system exports,
// shared by WriteOpenJSON and OpenResultJSON (the serving path).
func encodeOpenRuns(w io.Writer, runs []OpenRunJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(runs)
}

// WriteOpenJSON emits every open-system cell cached in the suite,
// sorted by cache key for deterministic bytes.
func (s *Suite) WriteOpenJSON(w io.Writer) error {
	out := []OpenRunJSON{}
	for _, c := range s.finished() {
		if r, ok := c.val.(*openload.Result); ok {
			out = append(out, openToJSON(r))
		}
	}
	return encodeOpenRuns(w, out)
}

// OpenResultJSON simulates (or recalls) one open-system cell and
// returns its canonical export bytes — single-element array, encoded
// exactly as WriteOpenJSON would — for the serving layer to store and
// serve verbatim.
func (s *Suite) OpenResultJSON(ctx context.Context, cfgName, scenario string, faultSeed uint64, sp openload.Spec) ([]byte, error) {
	r, err := s.OpenRunCtx(ctx, cfgName, scenario, faultSeed, sp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := encodeOpenRuns(&buf, []OpenRunJSON{openToJSON(r)}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
