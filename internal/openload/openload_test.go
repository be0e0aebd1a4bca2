package openload

import (
	"context"
	"fmt"
	"testing"
)

// fingerprint flattens everything observable about a result into one
// string, so determinism tests compare complete behaviour, not a
// sample of fields.
func fingerprint(r *Result) string {
	return fmt.Sprintf(
		"cfg=%s key=%s scen=%s/%d arrived=%d completed=%d shed=%d inflight=%d drained=%v cycles=%d "+
			"lat[sum=%d p50=%d p90=%d p99=%d p999=%d max=%d] thpt=%.6f faults=%d rt=%s",
		r.Config, r.Spec.Key(), r.Scenario, r.FaultSeed,
		r.Arrived, r.Completed, r.Shed, r.InFlightAtEnd, r.Drained, r.Cycles,
		r.Latency.Sum(), r.Latency.P50(), r.Latency.P90(),
		r.Latency.P99(), r.Latency.P999(), r.Latency.Max(),
		r.ThroughputPerKCycle, r.FaultTotal, r.RT)
}

func mustRun(t *testing.T, cfg string, sp Spec, opt Options) *Result {
	t.Helper()
	r, err := Run(context.Background(), cfg, sp, opt)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", cfg, sp.Key(), err)
	}
	return r
}

// checkIdentity re-asserts the accounting identity on the returned
// struct (Run already errors on violation; this guards the copy).
func checkIdentity(t *testing.T, r *Result) {
	t.Helper()
	if r.Arrived != r.Completed+r.Shed+r.InFlightAtEnd {
		t.Fatalf("identity violated: %d != %d + %d + %d",
			r.Arrived, r.Completed, r.Shed, r.InFlightAtEnd)
	}
	// One latency sample per completed request: the mean is the sum
	// over the completed count exactly when the counts agree.
	if r.Completed > 0 && r.Latency.Mean() != float64(r.Latency.Sum())/float64(r.Completed) {
		t.Fatalf("latency mean %g is not sum %d over completed %d",
			r.Latency.Mean(), r.Latency.Sum(), r.Completed)
	}
}

// TestScheduleDeterministic checks the arrival timetable is a pure
// function of the spec, strictly increasing, and seed-sensitive.
func TestScheduleDeterministic(t *testing.T) {
	for _, arrival := range Arrivals() {
		sp := Spec{Workload: "rmat-query", Arrival: arrival, RatePerK: 8, Requests: 200, Seed: 3}
		a, err := schedule(sp)
		if err != nil {
			t.Fatalf("%s: %v", arrival, err)
		}
		b, _ := schedule(sp)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: schedule not deterministic at %d: %d vs %d", arrival, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: schedule not monotone at %d", arrival, i)
			}
		}
		sp.Seed = 4
		c, _ := schedule(sp)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: seed change did not change the schedule", arrival)
		}
	}
	if _, err := schedule(Spec{Arrival: "nope", RatePerK: 1, Requests: 1}); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

// TestOpenWorkloads runs the workload end to end on the DTS config:
// answers are verified against native expectations inside Run, and the
// identity must hold with everything drained.
func TestOpenWorkloads(t *testing.T) {
	t.Run("rmat-query", func(t *testing.T) {
		sp := Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 4, Requests: 16, Seed: 1}
		r := mustRun(t, "bT8/HCC-DTS-gwb", sp, Options{})
		checkIdentity(t, r)
		if !r.Drained || r.InFlightAtEnd != 0 {
			t.Fatalf("unbounded wait left work in flight: %s", fingerprint(r))
		}
		if r.Completed == 0 {
			t.Fatalf("nothing completed: %s", fingerprint(r))
		}
	})
}

// TestOpenArrivalProcesses exercises bursty and diurnal arrivals on a
// software-stealing config.
func TestOpenArrivalProcesses(t *testing.T) {
	for _, arrival := range []string{"bursty", "diurnal"} {
		sp := Spec{Workload: "rmat-query", Arrival: arrival, RatePerK: 8, Requests: 16, Seed: 2}
		r := mustRun(t, "bT8/HCC-gwb", sp, Options{})
		checkIdentity(t, r)
		if r.Completed+r.Shed != 16 {
			t.Fatalf("%s: %s", arrival, fingerprint(r))
		}
	}
}

// TestOpenRepeatIdentical is the determinism gate: the same (config,
// spec, scenario) must fingerprint identically across runs, with and
// without chaos.
func TestOpenRepeatIdentical(t *testing.T) {
	sp := Spec{Workload: "rmat-query", Arrival: "bursty", RatePerK: 8, Requests: 24, Seed: 1}
	for _, scen := range []string{"", "chaos-lossy-all"} {
		opt := Options{Scenario: scen, FaultSeed: 7}
		a := fingerprint(mustRun(t, "bT8/HCC-DTS-gwb", sp, opt))
		b := fingerprint(mustRun(t, "bT8/HCC-DTS-gwb", sp, opt))
		if a != b {
			t.Fatalf("scenario %q not deterministic:\n  %s\n  %s", scen, a, b)
		}
	}
}

// TestOpenShedUnderOverload drives far more load than a 2-slot
// admission queue can hold: the queue must shed rather than build
// unbounded backlog, and the identity must absorb the shed requests.
func TestOpenShedUnderOverload(t *testing.T) {
	sp := Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 64, Requests: 32, Seed: 5,
		MaxInFlight: 2}
	r := mustRun(t, "bT8/HCC-DTS-gwb", sp, Options{})
	checkIdentity(t, r)
	if r.Shed == 0 {
		t.Fatalf("overload shed nothing: %s", fingerprint(r))
	}
	if r.Completed == 0 {
		t.Fatalf("overload completed nothing: %s", fingerprint(r))
	}
}

// TestOpenChaos asserts graceful degradation: under chaos-lossy-all
// (dropped steal messages, a dead core, DRAM/cache pressure) the run
// still completes every admitted request correctly — Run verifies the
// answers — and the identity holds.
func TestOpenChaos(t *testing.T) {
	sp := Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 8, Requests: 24, Seed: 1}
	r := mustRun(t, "bT8/HCC-DTS-gwb", sp, Options{Scenario: "chaos-lossy-all", FaultSeed: 3})
	checkIdentity(t, r)
	if !r.Drained {
		t.Fatalf("chaos run did not drain: %s", fingerprint(r))
	}
	if r.Completed+r.Shed != 24 {
		t.Fatalf("chaos lost requests: %s", fingerprint(r))
	}
}

// TestOpenHorizon cuts the drain short: the workload at a high rate
// must leave requests in flight at the horizon, counted (not lost) by
// the identity.
func TestOpenHorizon(t *testing.T) {
	sp := Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 32, Requests: 16, Seed: 2,
		Horizon: 2_000}
	r := mustRun(t, "bT8/HCC-gwb", sp, Options{})
	checkIdentity(t, r)
	if r.Drained {
		t.Fatalf("2k-cycle horizon should not drain 16 queries: %s", fingerprint(r))
	}
	if r.InFlightAtEnd == 0 {
		t.Fatalf("undrained run reports no in-flight work: %s", fingerprint(r))
	}
}

// TestOpenRejectsBadSpecs checks upfront validation.
func TestOpenRejectsBadSpecs(t *testing.T) {
	ctx := context.Background()
	base := Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 4, Requests: 4, Seed: 1}
	bad := []Spec{
		func() Spec { s := base; s.Workload = "nope"; return s }(),
		func() Spec { s := base; s.Arrival = "nope"; return s }(),
		func() Spec { s := base; s.Requests = 0; return s }(),
		func() Spec { s := base; s.RatePerK = 0; return s }(),
	}
	for i, sp := range bad {
		if _, err := Run(ctx, "bT8/HCC-DTS-gwb", sp, Options{}); err == nil {
			t.Errorf("bad spec %d accepted: %s", i, sp.Key())
		}
	}
	if _, err := Run(ctx, "no-such-config", base, Options{}); err == nil {
		t.Error("unknown config accepted")
	}
}

// TestRetiredWorkloadsRejected: the sort and reduce workloads are gone,
// and their names meet the one unknown-workload check (the one btsim
// -open reaches through Run) with a message that names rmat-query.
func TestRetiredWorkloadsRejected(t *testing.T) {
	for _, name := range []string{"sort", "reduce"} {
		sp := Spec{Workload: name, Arrival: "poisson", RatePerK: 4, Requests: 4, Seed: 1}
		_, err := Run(context.Background(), "bT8/HCC-DTS-gwb", sp, Options{})
		want := fmt.Sprintf("openload: unknown workload %q (have rmat-query)", name)
		if err == nil || err.Error() != want {
			t.Errorf("workload %q: got %v, want %q", name, err, want)
		}
	}
}
