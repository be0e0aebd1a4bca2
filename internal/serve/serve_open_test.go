package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"bigtiny/internal/bench"
)

// openReq is a small open-system job against the test config.
func openReq() JobRequest {
	return JobRequest{
		Kind:          "open",
		Config:        testCfg,
		Workload:      "rmat-query",
		Arrival:       "poisson",
		RatePerKCycle: 4,
		Requests:      8,
		Seed:          1,
	}
}

// TestOpenJob posts an open-system job and checks the canonical payload
// comes back with the accounting identity intact, byte-identical on a
// repeat and across an independent server.
func TestOpenJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJob(t, ts.URL, openReq())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var runs []map[string]any
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("payload not a JSON array: %v\n%s", err, body)
	}
	if len(runs) != 1 {
		t.Fatalf("expected 1 run, got %d", len(runs))
	}
	r := runs[0]
	arrived := int(r["arrived"].(float64))
	sum := int(r["completed"].(float64)) + int(r["shed"].(float64)) + int(r["in_flight_at_end"].(float64))
	if arrived != 8 || sum != arrived {
		t.Fatalf("identity violated in served payload: arrived=%d sum=%d\n%s", arrived, sum, body)
	}

	resp2, body2 := postJob(t, ts.URL, openReq())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("repeat open job not byte-identical:\n%s\nvs\n%s", body, body2)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2})
	resp3, body3 := postJob(t, ts2.URL, openReq())
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("second server status %d: %s", resp3.StatusCode, body3)
	}
	if !bytes.Equal(body, body3) {
		t.Errorf("open job differs across servers:\n%s\nvs\n%s", body, body3)
	}
}

// TestOpenJobChaos runs an open job under chaos-lossy-all: the serving
// path must produce a valid degraded-mode result, deterministically.
func TestOpenJobChaos(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := openReq()
	req.Faults = "chaos-lossy-all"
	req.FaultSeed = 3
	resp, body := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp2, body2 := postJob(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("chaos open job not deterministic:\n%s\nvs\n%s", body, body2)
	}
}

// TestOpenJobValidation checks malformed open jobs are rejected upfront
// with structured errors, not queued.
func TestOpenJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name   string
		mutate func(*JobRequest)
	}{
		{"unknown workload", func(r *JobRequest) { r.Workload = "nope" }},
		{"unknown arrival", func(r *JobRequest) { r.Arrival = "nope" }},
		{"zero rate", func(r *JobRequest) { r.RatePerKCycle = 0 }},
		{"zero requests", func(r *JobRequest) { r.Requests = 0 }},
		{"requests over cap", func(r *JobRequest) { r.Requests = maxOpenRequests + 1 }},
		{"app on open job", func(r *JobRequest) { r.App = "cilk5-nq" }},
		{"size on open job", func(r *JobRequest) { r.Size = "test" }},
		{"unknown kind", func(r *JobRequest) { r.Kind = "closed" }},
		{"unknown config", func(r *JobRequest) { r.Config = "nope" }},
		{"unknown scenario", func(r *JobRequest) { r.Faults = "nope" }},
	}
	for _, tc := range cases {
		req := openReq()
		tc.mutate(&req)
		resp, body := postJob(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		if e := decodeErr(t, body); e.Kind != "invalid" {
			t.Errorf("%s: kind %q, want invalid", tc.name, e.Kind)
		}
	}
	checkSeedCanonical(t, ts.URL, openReq())

	// A retired workload meets the same unknown-workload check as any
	// other name, and the answer names the one there is.
	req := openReq()
	req.Workload = "reduce"
	resp, body := postJob(t, ts.URL, req)
	e := decodeErr(t, body)
	if want := `openload: unknown workload "reduce" (have rmat-query)`; resp.StatusCode != http.StatusBadRequest || e.Error != want {
		t.Errorf("workload reduce: status %d, error %q, want 400 and %q", resp.StatusCode, e.Error, want)
	}
}

// TestQuarantineCounterResetsOnSuccess proves the consecutive-failure
// table is consecutive: two failures, a success, then two more failures
// must NOT quarantine a cell — only a third failure in a row
// (quarantineAfter) may.
func TestQuarantineCounterResetsOnSuccess(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	s, ts := newTestServer(t, Config{
		Workers: 1,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(cfgName, appName string) {
				if failing.Load() {
					panic("induced failure")
				}
			}
		},
	})
	req := JobRequest{Config: testCfg, App: "cilk5-nq", Size: "empty"}

	post := func(wantStatus int, step string) {
		t.Helper()
		resp, body := postJob(t, ts.URL, req)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", step, resp.StatusCode, wantStatus, body)
		}
	}

	post(http.StatusInternalServerError, "failure 1")
	post(http.StatusInternalServerError, "failure 2")

	failing.Store(false)
	post(http.StatusOK, "success after two failures")

	// The success must have reset the streak: were the table counting
	// total failures instead of consecutive ones, the cell would now be
	// one failure from quarantine with 2 already banked.
	s.mu.Lock()
	c := s.cells[jobKey(req)]
	streak, quarantined := 0, false
	if c != nil {
		streak, quarantined = c.failures, c.quarantined
	}
	s.mu.Unlock()
	if streak != 0 || quarantined {
		t.Fatalf("success left streak=%d quarantined=%v, want 0/false", streak, quarantined)
	}
}

// TestQuarantineStillTripsOnConsecutiveFailures is the complement: with
// no intervening success, the threshold must still quarantine the cell.
func TestQuarantineStillTripsOnConsecutiveFailures(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(cfgName, appName string) { panic("induced failure") }
		},
	})
	req := JobRequest{Config: testCfg, App: "cilk5-nq", Size: "empty"}
	for i := 0; i < 3; i++ {
		resp, body := postJob(t, ts.URL, req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d (%s)", i+1, resp.StatusCode, body)
		}
	}
	resp, body := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("after 3 consecutive failures: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Kind != "quarantined" {
		t.Fatalf("kind %q, want quarantined", e.Kind)
	}
}

// TestQuarantineStreakTable drives cellFailed/recoveredLocked directly:
// the table must quarantine on the Nth *consecutive* failure only, and
// it holds failing cells only.
func TestQuarantineStreakTable(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	key := "v1|cell"
	fail := func() { s.cellFailed(key, errFor("boom")) }
	recovered := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.recoveredLocked(key)
		if len(s.cells) != 0 {
			t.Fatalf("the table keeps %d cells after the only one recovered", len(s.cells))
		}
	}

	fail()
	fail()
	if _, q := s.cellQuarantined(key); q {
		t.Fatal("quarantined after 2 failures with threshold 3")
	}
	recovered()
	fail()
	fail()
	if _, q := s.cellQuarantined(key); q {
		t.Fatal("quarantined after 2+2 failures split by a success: streak did not reset")
	}
	fail()
	if _, q := s.cellQuarantined(key); !q {
		t.Fatal("not quarantined after 3 consecutive failures")
	}
	// Recovery lifts an active quarantine too (store-hit path).
	recovered()
	if _, q := s.cellQuarantined(key); q {
		t.Fatal("success did not lift the quarantine")
	}
}

// TestStoreHitClearsFailureStreak checks the disk-tier success path
// also counts as a success for the quarantine table: a cell with a
// stored result cannot be one transient failure away from quarantine.
func TestStoreHitClearsFailureStreak(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	req := JobRequest{Config: testCfg, App: "cilk5-nq", Size: "empty"}
	key := jobKey(req)

	s.cellFailed(key, errFor("transient 1"))
	s.cellFailed(key, errFor("transient 2"))
	if err := s.Store().Put(key, []byte(`[{"stub":true}]`)); err != nil {
		t.Fatal(err)
	}

	resp, body := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store hit status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Simd-Result"); got != "store" {
		t.Fatalf("expected a store hit, got %q", got)
	}

	s.mu.Lock()
	c := s.cells[key]
	streak := 0
	if c != nil {
		streak = c.failures
	}
	s.mu.Unlock()
	if streak != 0 {
		t.Fatalf("store hit left failure streak at %d, want 0", streak)
	}
}

// errFor wraps a string as an error for the white-box streak tests.
func errFor(msg string) error { return &strErr{msg} }

type strErr struct{ s string }

func (e *strErr) Error() string { return e.s }
