package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"

	"bigtiny/internal/cpu"
	"bigtiny/internal/energy"
	"bigtiny/internal/noc"
	"bigtiny/internal/stats"
)

// RunJSON is the machine-readable form of one simulation's metrics,
// used to feed external plotting or regression-tracking tools.
type RunJSON struct {
	Config string `json:"config"`
	App    string `json:"app"`
	Size   string `json:"size"`
	Grain  int    `json:"grain"`

	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`

	TinyBreakdown map[string]uint64 `json:"tiny_breakdown"`
	BigBreakdown  map[string]uint64 `json:"big_breakdown"`

	TinyHitRate float64 `json:"tiny_l1d_hit_rate"`
	InvLines    uint64  `json:"inv_lines"`
	FlushLines  uint64  `json:"flush_lines"`
	TinyAmos    uint64  `json:"tiny_amos"`

	L2Hits    uint64 `json:"l2_hits"`
	L2Misses  uint64 `json:"l2_misses"`
	L2Recalls uint64 `json:"l2_recalls"`
	L2Amos    uint64 `json:"l2_amos"`

	TrafficBytes map[string]uint64 `json:"traffic_bytes"`
	AvgHops      float64           `json:"avg_hops"`

	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`

	// ULI protocol accounting. Every request terminates in exactly one
	// of Acks, Nacks, or Drops (Reqs == Acks + Nacks + Drops); Timeouts,
	// LateAcks, and Restitutions count recovery events that overlap the
	// three terminal outcomes.
	ULIReqs         uint64  `json:"uli_reqs,omitempty"`
	ULIAcks         uint64  `json:"uli_acks,omitempty"`
	ULINacks        uint64  `json:"uli_nacks,omitempty"`
	ULIDrops        uint64  `json:"uli_drops,omitempty"`
	ULITimeouts     uint64  `json:"uli_timeouts,omitempty"`
	ULILateAcks     uint64  `json:"uli_late_acks,omitempty"`
	ULIRestitutions uint64  `json:"uli_restitutions,omitempty"`
	ULIAvgLatency   float64 `json:"uli_avg_latency,omitempty"`

	Spawns     uint64 `json:"spawns"`
	StealHits  uint64 `json:"steal_hits"`
	StealTries uint64 `json:"steal_tries"`

	// Runtime recovery counters (nonzero only under lossy fault
	// scenarios).
	OfflineCores   uint64 `json:"offline_cores,omitempty"`
	Reclaims       uint64 `json:"reclaims,omitempty"`
	Salvages       uint64 `json:"salvages,omitempty"`
	DegradedCycles uint64 `json:"degraded_cycles,omitempty"`

	// Fault-injection and oracle context for the run.
	FaultScenario string `json:"fault_scenario,omitempty"`
	FaultSeed     uint64 `json:"fault_seed,omitempty"`
	FaultTotal    uint64 `json:"fault_total,omitempty"`
	OracleOps     uint64 `json:"oracle_ops,omitempty"`

	EnergyUJ float64 `json:"energy_uj"`
}

// toJSON converts a collected run.
func (s *Suite) toJSON(r *stats.Run) RunJSON {
	j := RunJSON{
		Config: r.Config, App: r.App, Size: s.Size.String(), Grain: s.Grain,
		Cycles: uint64(r.Cycles), Insts: r.Insts,
		TinyBreakdown: map[string]uint64{}, BigBreakdown: map[string]uint64{},
		TinyHitRate: r.TinyHitRate(),
		InvLines:    r.L1Tiny.InvLines, FlushLines: r.L1Tiny.FlushLines,
		TinyAmos: r.L1Tiny.Amos,
		L2Hits:   r.L2.Hits, L2Misses: r.L2.Misses,
		L2Recalls: r.L2.Recalls, L2Amos: r.L2.AmoOps,
		TrafficBytes: map[string]uint64{},
		AvgHops:      r.AvgHops,
		DRAMReads:    r.DRAMReads, DRAMWrites: r.DRAMWrites,
		Spawns: r.RT.Spawns, StealHits: r.RT.StealHits, StealTries: r.RT.StealTries,
		OfflineCores: r.RT.OfflineCores, Reclaims: r.RT.Reclaims,
		Salvages: r.RT.Salvages, DegradedCycles: r.RT.DegradedCycles,
		FaultTotal: r.FaultTotal,
		OracleOps:  r.OracleOps,
		EnergyUJ:   energy.DefaultModel().Estimate(r),
	}
	if r.FaultTotal > 0 || s.Env.Scenario != "" {
		j.FaultScenario = s.Env.Scenario
		j.FaultSeed = s.Env.Seed()
	}
	for cls := 0; cls < int(cpu.NumClasses); cls++ {
		j.TinyBreakdown[cpu.Class(cls).String()] = r.TinyBreakdown[cls]
		j.BigBreakdown[cpu.Class(cls).String()] = r.BigBreakdown[cls]
	}
	for c := 0; c < int(noc.NumCategories); c++ {
		j.TrafficBytes[noc.Category(c).String()] = r.Traffic.Bytes[c]
	}
	if r.ULI != nil {
		j.ULIReqs, j.ULIAcks, j.ULINacks = r.ULI.Reqs, r.ULI.Acks, r.ULI.Nacks
		j.ULIDrops, j.ULITimeouts = r.ULI.Drops, r.ULI.Timeouts
		j.ULILateAcks, j.ULIRestitutions = r.ULI.LateAcks, r.ULI.Restitutions
		j.ULIAvgLatency = r.ULIAvgLatency
	}
	return j
}

// encodeRuns is the one canonical JSON encoding of exported runs. Both
// WriteJSON (the `paperbench -json` path) and ResultJSON (the serving
// path) go through it, so a result served over the API is byte-identical
// to the CLI export of the same run. encoding/json sorts map keys, so
// the bytes are deterministic.
func encodeRuns(w io.Writer, runs []RunJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(runs)
}

// WriteJSON emits every run cached in the suite at its own size and
// grain (sorted by config then app) as a JSON array. Run the desired
// tables/figures first; this exports whatever they simulated.
func (s *Suite) WriteJSON(w io.Writer) error {
	out := []RunJSON{}
	for _, c := range s.finished() {
		if r, ok := c.val.(*stats.Run); ok && c.w.Size == s.Size && c.w.Grain == s.Grain {
			out = append(out, s.toJSON(r))
		}
	}
	return encodeRuns(w, out)
}

// ResultJSON simulates (or recalls) one cell and returns its canonical
// export bytes: a single-element JSON array encoded exactly as
// WriteJSON would encode a suite holding only that run. The serving
// layer stores and serves these bytes verbatim, which is what makes a
// cold-started daemon, a warm one, and `paperbench -json` byte-identical
// for the same (config, app, size, grain, scenario, seed) tuple.
func (s *Suite) ResultJSON(ctx context.Context, cfgName, appName string) ([]byte, error) {
	r, err := s.RunCtx(ctx, cfgName, appName)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := encodeRuns(&buf, []RunJSON{s.toJSON(r)}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
