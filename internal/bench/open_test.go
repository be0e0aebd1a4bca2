package bench

import (
	"bytes"
	"context"
	"io"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/openload"
)

// testOpenSweep is a reduced grid that still crosses coherence
// configurations, offered loads, and chaos.
func testOpenSweep() OpenSweep {
	return OpenSweep{
		Configs:   []string{"bT8/HCC-gwb", "bT8/HCC-DTS-gwb"},
		Rates:     []float64{2, 16},
		Scenarios: []string{"", "chaos-lossy-all"},
		Workload:  "rmat-query",
		Arrival:   "poisson",
		Requests:  16,
		Seed:      1,
		FaultSeed: 3,
	}
}

// TestOpenParallelMatchesSerial is the -j determinism gate for the
// open-system sweep: a parallel Prewarm followed by a render must be
// byte-identical to a cold serial render, and so must the JSON export.
func TestOpenParallelMatchesSerial(t *testing.T) {
	sw := testOpenSweep()

	serial := NewSuite(apps.Test)
	var serialOut bytes.Buffer
	if err := serial.Open(&serialOut, sw); err != nil {
		t.Fatalf("serial render: %v", err)
	}

	parallel := NewSuite(apps.Test)
	render := func(s *Suite, w io.Writer, _ []string) error { return s.Open(w, sw) }
	if err := parallel.Prewarm(parallel.Cells(render, nil), 4); err != nil {
		t.Fatalf("parallel prewarm: %v", err)
	}
	var parallelOut bytes.Buffer
	if err := parallel.Open(&parallelOut, sw); err != nil {
		t.Fatalf("parallel render: %v", err)
	}

	if !bytes.Equal(serialOut.Bytes(), parallelOut.Bytes()) {
		t.Errorf("parallel render differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialOut.String(), parallelOut.String())
	}

	var serialJSON, parallelJSON bytes.Buffer
	if err := serial.WriteOpenJSON(&serialJSON); err != nil {
		t.Fatalf("serial json: %v", err)
	}
	if err := parallel.WriteOpenJSON(&parallelJSON); err != nil {
		t.Fatalf("parallel json: %v", err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parallelJSON.Bytes()) {
		t.Errorf("parallel JSON export differs from serial:\n%s\nvs\n%s",
			serialJSON.String(), parallelJSON.String())
	}
}

// TestOpenRepeatRunsIdentical repeats the sweep on a fresh suite: the
// rendered bytes must not depend on process history.
func TestOpenRepeatRunsIdentical(t *testing.T) {
	sw := testOpenSweep()
	var a, b bytes.Buffer
	if err := NewSuite(apps.Test).Open(&a, sw); err != nil {
		t.Fatalf("first render: %v", err)
	}
	if err := NewSuite(apps.Test).Open(&b, sw); err != nil {
		t.Fatalf("second render: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("repeat render differs:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestOpenRunCaches checks the singleflight cache: the second call for
// the same cell returns the same result pointer without re-simulating.
func TestOpenRunCaches(t *testing.T) {
	s := NewSuite(apps.Test)
	sims := 0
	s.SimHook = func(cfgName, appName string) { sims++ }
	sp := openload.Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 4, Requests: 8, Seed: 1}
	a, err := s.OpenRun("bT8/HCC-DTS-gwb", "", 0, sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.OpenRun("bT8/HCC-DTS-gwb", "", 0, sp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second OpenRun returned a different result object")
	}
	if sims != 1 {
		t.Errorf("expected 1 simulation, saw %d", sims)
	}
	// A different scenario is a different cell.
	if _, err := s.OpenRun("bT8/HCC-DTS-gwb", "lossy-uli", 1, sp); err != nil {
		t.Fatal(err)
	}
	if sims != 2 {
		t.Errorf("expected 2 simulations after scenario change, saw %d", sims)
	}
}

// TestOpenResultJSONStable checks the serving-path export is
// deterministic across suites (what the daemon's store relies on).
func TestOpenResultJSONStable(t *testing.T) {
	sp := openload.Spec{Workload: "rmat-query", Arrival: "bursty", RatePerK: 8, Requests: 12, Seed: 2}
	ctx := context.Background()
	a, err := NewSuite(apps.Test).OpenResultJSON(ctx, "bT8/HCC-DTS-gwb", "chaos-lossy-all", 5, sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(apps.Test).OpenResultJSON(ctx, "bT8/HCC-DTS-gwb", "chaos-lossy-all", 5, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("OpenResultJSON not stable:\n%s\nvs\n%s", a, b)
	}
}

// TestFaultSeedRule pins openload.Options.Seed on both cell kinds: a
// fault-free open cell exports the same bytes at fault seed 0 and 1,
// with no fault_seed at all, and a closed-loop run under a scenario at
// seed 0 is the run at seed 1, down to its -json bytes.
func TestFaultSeedRule(t *testing.T) {
	ctx := context.Background()
	sp := openload.Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: 4, Requests: 8, Seed: 1}
	var open, closed [2][]byte
	for seed := range open {
		b, err := NewSuite(apps.Test).OpenResultJSON(ctx, "bT8/HCC-DTS-gwb", "", uint64(seed), sp)
		if err != nil {
			t.Fatal(err)
		}
		open[seed] = b
		s := NewSuite(apps.Test)
		s.Env = openload.Options{Scenario: "chaos-all", FaultSeed: uint64(seed)}
		if closed[seed], err = s.ResultJSON(ctx, "bT8/HCC-DTS-gwb", "cilk5-cs"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(open[0], open[1]) || bytes.Contains(open[1], []byte("fault_seed")) {
		t.Errorf("fault-free open cell differs by fault seed:\n%s\nvs\n%s", open[0], open[1])
	}
	if !bytes.Equal(closed[0], closed[1]) {
		t.Errorf("chaos-all run at fault seed 0 is not the run at seed 1:\n%s\nvs\n%s", closed[0], closed[1])
	}
}
