// Package fault is a seeded, deterministic fault-injection framework
// for the simulated machine. A Scenario describes *what* can go wrong
// (NoC latency jitter and congestion bursts, forced ULI NACK storms and
// delayed deliveries, DRAM latency spikes and bandwidth throttling,
// straggling tiny cores, artificial L1 capacity pressure); an Injector
// instantiates a scenario with a PRNG seed and is consulted by the
// subsystems at well-defined injection sites.
//
// Determinism: the simulation kernel runs exactly one goroutine at a
// time, so injector decisions are drawn in deterministic event order —
// the same scenario and seed always produce the same injected faults
// and therefore the same final cycle count. Decision methods draw from
// the PRNG only when the corresponding scenario knob is enabled, so a
// zero Scenario (or a nil *Injector) perturbs nothing: cycle counts are
// bit-identical to a run without injection. Faults perturb only
// *timing* and *availability*, never data, so program output must stay
// identical to the fault-free serial reference — the invariance the
// chaos harness (internal/bench, cmd/paperbench chaos) asserts.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"bigtiny/internal/sim"
)

// Site identifies one class of injection point.
type Site int

// Injection sites, one per subsystem hook.
const (
	NoCDelay     Site = iota // extra data-mesh message latency
	ULINack                  // forced NACK of a ULI steal request
	ULIDelay                 // delayed ULI message delivery
	ULIReqDrop               // steal request lost on the ULI mesh
	ULIRespDrop              // steal response lost on the ULI mesh
	CoreOffline              // tiny core fail-stops its scheduling loop
	DRAMSpike                // extra DRAM access latency
	DRAMThrottle             // DRAM bandwidth throttled (longer occupancy)
	CPUStall                 // straggling tiny core (slowed compute)
	CacheEvict               // forced L1 eviction (capacity pressure)
	NumSites
)

var siteNames = [NumSites]string{
	"noc-delay", "uli-nack", "uli-delay", "uli-req-drop", "uli-resp-drop",
	"core-offline", "dram-spike", "dram-throttle", "cpu-stall", "cache-evict",
}

// String returns the site's display name.
func (s Site) String() string {
	if s < 0 || s >= NumSites {
		return fmt.Sprintf("site(%d)", int(s))
	}
	return siteNames[s]
}

// Scenario describes a named fault workload. The zero value injects
// nothing. All probabilities are per injection opportunity; all
// period/length pairs describe repeating windows in simulated time
// (the fault is armed while now%Period < Len).
type Scenario struct {
	Name string
	Desc string

	// NoC: per-message latency jitter plus periodic congestion bursts
	// on the data mesh.
	NoCJitterProb  float64  // probability a message is jittered
	NoCJitterMax   sim.Time // jitter is uniform in [1, NoCJitterMax]
	NoCBurstPeriod sim.Time // congestion-burst window period (0 = off)
	NoCBurstLen    sim.Time // burst window length
	NoCBurstDelay  sim.Time // extra latency per message inside a burst

	// ULI: forced NACKs (storms) and delayed deliveries.
	ULINackProb    float64  // probability an arriving request is NACKed
	ULIStormPeriod sim.Time // NACK storm window period (0 = always armed)
	ULIStormLen    sim.Time // storm window length
	ULIDelayProb   float64  // probability a ULI message is delayed
	ULIDelayMax    sim.Time // delay is uniform in [1, ULIDelayMax]

	// Lossy ULI: steal-path messages vanish on the mesh. A nonzero drop
	// probability arms the runtime's steal-timeout/retry machinery (see
	// Lossy).
	ULIReqDropProb  float64 // probability a steal request is dropped
	ULIRespDropProb float64 // probability a steal response (ACK or NACK) is dropped

	// Core offlining: at OfflineAt, the OfflineLane-th tiny core
	// fail-stops its scheduling loop forever (0 = off). Big cores never
	// go offline — core 0 runs the root task.
	OfflineAt   sim.Time
	OfflineLane int

	// DRAM: latency spikes and periodic bandwidth throttling.
	DRAMSpikeProb      float64  // probability an access takes a spike
	DRAMSpikeLat       sim.Time // extra latency per spiked access
	DRAMThrottlePeriod sim.Time // throttle window period (0 = off)
	DRAMThrottleLen    sim.Time // throttle window length
	DRAMThrottleFactor int      // service-time multiplier inside a window

	// CPU: every StragglerEvery-th tiny core runs compute
	// StragglerFactor times slower (0 = off). Big cores never straggle.
	StragglerEvery  int
	StragglerFactor int

	// Cache: every EvictEvery-th L1 access force-evicts the LRU line of
	// the accessed set first (0 = off), modelling capacity pressure.
	EvictEvery int
}

// Zero reports whether the scenario injects nothing.
func (sc *Scenario) Zero() bool {
	return sc.NoCJitterProb == 0 && sc.NoCBurstPeriod == 0 &&
		sc.ULINackProb == 0 && sc.ULIDelayProb == 0 &&
		sc.DRAMSpikeProb == 0 && sc.DRAMThrottlePeriod == 0 &&
		sc.StragglerEvery == 0 && sc.EvictEvery == 0 &&
		!sc.Lossy()
}

// Lossy reports whether the scenario can lose steal-path messages or
// offline a core — the fault classes that require the runtime's
// recovery machinery (steal timeouts, retry/backoff, quarantine,
// reclaim). The machine arms the ULI steal timeout only for lossy
// scenarios, so fault-free runs schedule zero timers.
func (sc *Scenario) Lossy() bool {
	return sc.ULIReqDropProb > 0 || sc.ULIRespDropProb > 0 || sc.OfflineAt > 0
}

// Injector is a scenario bound to one machine: it holds the PRNG and
// the per-site fault counters. All decision methods are safe on a nil
// receiver (they inject nothing), so subsystems can call them
// unconditionally.
type Injector struct {
	sc     Scenario
	rng    sim.Rand
	counts [NumSites]uint64

	// accessTick counts L1 accesses for the EvictEvery cadence.
	accessTick uint64
}

// NewInjector binds sc to a fresh PRNG seeded with seed.
func NewInjector(sc Scenario, seed uint64) *Injector {
	in := new(Injector)
	in.Reset(sc, seed)
	return in
}

// Reset rebinds the injector to sc and a PRNG seeded with seed, with
// every counter at zero: it is then the injector NewInjector(sc, seed)
// returns.
func (in *Injector) Reset(sc Scenario, seed uint64) {
	*in = Injector{sc: sc, rng: *sim.NewRand(seed)}
}

// Scenario returns the bound scenario.
func (in *Injector) Scenario() Scenario {
	if in == nil {
		return Scenario{}
	}
	return in.sc
}

// Count returns the number of faults injected at site s.
func (in *Injector) Count(s Site) uint64 {
	if in == nil {
		return 0
	}
	return in.counts[s]
}

// Total returns the number of faults injected across all sites.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for _, c := range in.counts {
		t += c
	}
	return t
}

// Summary formats the nonzero per-site counts.
func (in *Injector) Summary() string {
	if in == nil {
		return "no injector"
	}
	var parts []string
	for s := Site(0); s < NumSites; s++ {
		if in.counts[s] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", s, in.counts[s]))
		}
	}
	if len(parts) == 0 {
		return "no faults injected"
	}
	return strings.Join(parts, " ")
}

// Fired records an injection decided elsewhere (e.g. the L1 counts a
// forced eviction only when the set actually held a line to evict).
func (in *Injector) Fired(s Site) {
	if in == nil {
		return
	}
	in.counts[s]++
}

// inWindow reports whether now falls inside the repeating window.
func inWindow(now, period, length sim.Time) bool {
	return period > 0 && now%period < length
}

// NoCDelay returns extra latency to add to a data-mesh message sent at
// now.
func (in *Injector) NoCDelay(now sim.Time) sim.Time {
	if in == nil {
		return 0
	}
	var d sim.Time
	if in.sc.NoCJitterProb > 0 && in.rng.Float64() < in.sc.NoCJitterProb {
		d += 1 + sim.Time(in.rng.Intn(int(in.sc.NoCJitterMax)))
		in.counts[NoCDelay]++
	}
	if inWindow(now, in.sc.NoCBurstPeriod, in.sc.NoCBurstLen) {
		d += in.sc.NoCBurstDelay
		in.counts[NoCDelay]++
	}
	return d
}

// ULIForceNack reports whether a ULI request arriving at now is
// force-refused (a NACK storm).
func (in *Injector) ULIForceNack(now sim.Time) bool {
	if in == nil || in.sc.ULINackProb == 0 {
		return false
	}
	if in.sc.ULIStormPeriod > 0 && !inWindow(now, in.sc.ULIStormPeriod, in.sc.ULIStormLen) {
		return false
	}
	if in.rng.Float64() < in.sc.ULINackProb {
		in.counts[ULINack]++
		return true
	}
	return false
}

// ULIDelay returns extra delivery latency for a ULI message arriving at
// now.
func (in *Injector) ULIDelay(now sim.Time) sim.Time {
	if in == nil || in.sc.ULIDelayProb == 0 {
		return 0
	}
	if in.rng.Float64() < in.sc.ULIDelayProb {
		in.counts[ULIDelay]++
		return 1 + sim.Time(in.rng.Intn(int(in.sc.ULIDelayMax)))
	}
	return 0
}

// ULIDropReq reports whether a steal request is lost on the ULI mesh.
func (in *Injector) ULIDropReq() bool {
	if in == nil || in.sc.ULIReqDropProb == 0 {
		return false
	}
	if in.rng.Float64() < in.sc.ULIReqDropProb {
		in.counts[ULIReqDrop]++
		return true
	}
	return false
}

// ULIDropResp reports whether a steal response (ACK or NACK) is lost
// on the ULI mesh.
func (in *Injector) ULIDropResp() bool {
	if in == nil || in.sc.ULIRespDropProb == 0 {
		return false
	}
	if in.rng.Float64() < in.sc.ULIRespDropProb {
		in.counts[ULIRespDrop]++
		return true
	}
	return false
}

// CoreOffline reports whether the lane-th tiny core (lane < 0 marks a
// big core) has fail-stopped by now. It is a pure predicate — the core
// latches the transition itself and records it with Fired(CoreOffline)
// exactly once.
func (in *Injector) CoreOffline(lane int, now sim.Time) bool {
	return in.CanOffline(lane) && now >= in.sc.OfflineAt
}

// CanOffline is CoreOffline without the clock: can the lane ever go?
func (in *Injector) CanOffline(lane int) bool {
	return in != nil && lane >= 0 && in.sc.OfflineAt != 0 && lane == in.sc.OfflineLane
}

// DRAMAccess perturbs one DRAM access: it returns the (possibly
// throttled) bandwidth occupancy and any extra spike latency.
func (in *Injector) DRAMAccess(now, service sim.Time) (occupancy, extra sim.Time) {
	if in == nil {
		return service, 0
	}
	occupancy = service
	if in.sc.DRAMThrottleFactor > 1 &&
		inWindow(now, in.sc.DRAMThrottlePeriod, in.sc.DRAMThrottleLen) {
		occupancy = service * sim.Time(in.sc.DRAMThrottleFactor)
		in.counts[DRAMThrottle]++
	}
	if in.sc.DRAMSpikeProb > 0 && in.rng.Float64() < in.sc.DRAMSpikeProb {
		extra = in.sc.DRAMSpikeLat
		in.counts[DRAMSpike]++
	}
	return occupancy, extra
}

// CPUStall returns extra cycles for a compute burst of the given length
// on the lane-th tiny core (lane < 0 marks a big core; big cores never
// straggle). Deterministic: every StragglerEvery-th tiny core runs
// StragglerFactor times slower.
func (in *Injector) CPUStall(lane, cycles int) int {
	if in == nil || lane < 0 || cycles <= 0 ||
		in.sc.StragglerEvery <= 0 || in.sc.StragglerFactor <= 1 {
		return 0
	}
	if lane%in.sc.StragglerEvery != 0 {
		return 0
	}
	in.counts[CPUStall]++
	return cycles * (in.sc.StragglerFactor - 1)
}

// CacheEvictTick reports whether this L1 access should force-evict a
// line first (every EvictEvery-th access across all L1s). The caller
// records the injection with Fired(CacheEvict) only if the accessed set
// actually held a line.
func (in *Injector) CacheEvictTick() bool {
	if in == nil || in.sc.EvictEvery <= 0 {
		return false
	}
	in.accessTick++
	return in.accessTick%uint64(in.sc.EvictEvery) == 0
}

// --- named scenario catalogue ---

// Scenarios returns the named scenario catalogue.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "none",
			Desc: "no injection (baseline; identical cycles to running without an injector)",
		},
		{
			Name:          "noc-jitter",
			Desc:          "per-message data-mesh latency jitter plus periodic congestion bursts",
			NoCJitterProb: 0.25, NoCJitterMax: 6,
			NoCBurstPeriod: 50_000, NoCBurstLen: 5_000, NoCBurstDelay: 12,
		},
		{
			Name:        "uli-nack-storm",
			Desc:        "periodic windows where most ULI steal requests are force-NACKed, plus delayed deliveries",
			ULINackProb: 0.8, ULIStormPeriod: 20_000, ULIStormLen: 10_000,
			ULIDelayProb: 0.2, ULIDelayMax: 20,
		},
		{
			Name:          "dram-spike",
			Desc:          "random DRAM latency spikes plus periodic bandwidth throttling",
			DRAMSpikeProb: 0.1, DRAMSpikeLat: 300,
			DRAMThrottlePeriod: 100_000, DRAMThrottleLen: 20_000, DRAMThrottleFactor: 8,
		},
		{
			Name:           "tiny-straggler",
			Desc:           "every 3rd tiny core runs compute 3x slower (thermal-throttle model)",
			StragglerEvery: 3, StragglerFactor: 3,
		},
		{
			Name:       "cache-pressure",
			Desc:       "every 32nd L1 access force-evicts the accessed set's LRU line",
			EvictEvery: 32,
		},
		{
			Name:           "lossy-uli",
			Desc:           "10% of steal requests and responses vanish on the ULI mesh, plus delayed deliveries",
			ULIReqDropProb: 0.1, ULIRespDropProb: 0.1,
			ULIDelayProb: 0.1, ULIDelayMax: 10,
		},
		{
			Name:      "core-loss",
			Desc:      "one tiny core fail-stops mid-run; survivors reclaim its queued work",
			OfflineAt: 6_000, OfflineLane: 3,
		},
		{
			Name:          "chaos-all",
			Desc:          "a milder dose of every fault class at once",
			NoCJitterProb: 0.1, NoCJitterMax: 4,
			NoCBurstPeriod: 80_000, NoCBurstLen: 4_000, NoCBurstDelay: 8,
			ULINackProb: 0.3, ULIStormPeriod: 40_000, ULIStormLen: 8_000,
			ULIDelayProb: 0.1, ULIDelayMax: 10,
			DRAMSpikeProb: 0.05, DRAMSpikeLat: 200,
			DRAMThrottlePeriod: 150_000, DRAMThrottleLen: 15_000, DRAMThrottleFactor: 4,
			StragglerEvery: 4, StragglerFactor: 2,
			EvictEvery: 64,
		},
		{
			Name:          "chaos-lossy-all",
			Desc:          "every fault class at once, including steal-path loss and a mid-run core failure",
			NoCJitterProb: 0.1, NoCJitterMax: 4,
			NoCBurstPeriod: 80_000, NoCBurstLen: 4_000, NoCBurstDelay: 8,
			ULINackProb: 0.3, ULIStormPeriod: 40_000, ULIStormLen: 8_000,
			ULIDelayProb: 0.1, ULIDelayMax: 10,
			ULIReqDropProb: 0.05, ULIRespDropProb: 0.05,
			OfflineAt: 50_000, OfflineLane: 2,
			DRAMSpikeProb: 0.05, DRAMSpikeLat: 200,
			DRAMThrottlePeriod: 150_000, DRAMThrottleLen: 15_000, DRAMThrottleFactor: 4,
			StragglerEvery: 4, StragglerFactor: 2,
			EvictEvery: 64,
		},
	}
}

// Lookup returns the named scenario or an error listing valid names.
func Lookup(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("fault: unknown scenario %q (have %v)", name, Names())
}

// Names returns all scenario names, sorted.
func Names() []string {
	var names []string
	for _, sc := range Scenarios() {
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return names
}
