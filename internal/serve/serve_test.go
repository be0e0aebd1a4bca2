package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/fault"
	"bigtiny/internal/openload"
)

// testCfg is the cheap 8-core DTS machine all service tests run on.
const testCfg = "bT8/HCC-DTS-gwb"

// newTestServer builds, starts, and tears down a server around cfg.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(2 * time.Second)
	})
	return s, ts
}

// postJob POSTs one job and returns the response with its body read.
func postJob(t *testing.T, url string, req JobRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeErr(t *testing.T, body []byte) ErrorJSON {
	t.Helper()
	var e ErrorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not ErrorJSON: %v\n%s", err, body)
	}
	return e
}

// TestJobByteIdentity is the serving acceptance test: the API's bytes
// for a tuple equal `paperbench -json`'s bytes for the same tuple, and
// a cold-started daemon reading the warm store serves the same bytes
// again.
func TestJobByteIdentity(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"}

	s, ts := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	resp, ran := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job failed: %d\n%s", resp.StatusCode, ran)
	}
	if got := resp.Header.Get("X-Simd-Result"); got != "ran" {
		t.Fatalf("first request provenance = %q, want ran", got)
	}

	// The CLI path: same tuple through the suite's -json export.
	cli := bench.NewSuite(apps.Empty)
	if _, err := cli.Run(testCfg, "cilk5-mt"); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cli.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ran, want.Bytes()) {
		t.Fatalf("API bytes diverge from CLI bytes:\n--- api ---\n%s\n--- cli ---\n%s", ran, want.String())
	}

	// Warm daemon, second request: served from memory or store, same bytes.
	resp, again := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(again, ran) {
		t.Fatalf("warm daemon diverged: %d\n%s", resp.StatusCode, again)
	}
	ts.Close()
	s.Drain(2 * time.Second)

	// Cold daemon, warm store: byte-identical without simulating. The
	// suiteHook panics to prove no simulation can run.
	cold, tsCold := newTestServer(t, Config{
		Workers: 2, StoreDir: dir,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(string, string) { panic("cold daemon must not simulate") }
		},
	})
	resp, stored := postJob(t, tsCold.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold daemon miss on a warm store: %d\n%s", resp.StatusCode, stored)
	}
	if got := resp.Header.Get("X-Simd-Result"); got != "store" {
		t.Fatalf("cold daemon provenance = %q, want store", got)
	}
	if !bytes.Equal(stored, ran) {
		t.Fatalf("cold daemon bytes diverge from the original run")
	}
	if st := cold.Store().Stats(); st.Hits == 0 {
		t.Fatalf("cold daemon never hit its store: %+v", st)
	}
}

// TestValidation is the table of bad run settings: each is a 400 with
// kind "invalid" before any pool slot is spent, and its text is the
// shared check's (bench.Check, which btsim runs too) word for word. The
// method is enforced.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ok := JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"}
	cases := []struct {
		name   string
		mutate func(*JobRequest)
		want   string
	}{
		{"unknown config", func(r *JobRequest) { r.Config = "no-such-machine" }, `machine: unknown config "no-such-machine"`},
		{"unknown app", func(r *JobRequest) { r.App = "no-such-app" }, `apps: unknown app "no-such-app"`},
		{"unknown size", func(r *JobRequest) { r.Size = "galactic" }, `apps: unknown size "galactic"`},
		{"negative grain", func(r *JobRequest) { r.Grain = -1 }, "apps: negative grain -1"},
		{"unknown scenario", func(r *JobRequest) { r.Faults = "no-such-scenario" }, `fault: unknown scenario "no-such-scenario"`},
	}
	for _, tc := range cases {
		req := ok
		tc.mutate(&req)
		_, err := bench.Check(req.Config, req.App, req.Size, req.Grain,
			openload.Options{Scenario: req.Faults, FaultSeed: req.FaultSeed})
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: shared check says %v, want %q", tc.name, err, tc.want)
			continue
		}
		resp, body := postJob(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%s", tc.name, resp.StatusCode, body)
			continue
		}
		if e := decodeErr(t, body); e.Kind != "invalid" || e.Error != err.Error() {
			t.Errorf("%s: %s error %q, want the shared check's %q", tc.name, e.Kind, e.Error, err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
}

// TestPanicIsolationAndQuarantine: a poison job panics, fails alone
// with a structured error while the daemon keeps serving; after
// QuarantineAfter failures its cell is refused upfront without running.
func TestPanicIsolationAndQuarantine(t *testing.T) {
	var poisonRuns atomic.Int32
	_, ts := newTestServer(t, Config{
		Workers: 2, QuarantineAfter: 2,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(cfg, app string) {
				if app == "cilk5-cs" {
					poisonRuns.Add(1)
					panic("deliberate poison job")
				}
			}
		},
	})
	poison := JobRequest{Config: testCfg, App: "cilk5-cs", Size: "empty"}

	for i := 0; i < 2; i++ {
		resp, body := postJob(t, ts.URL, poison)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("poison attempt %d: status %d, want 500\n%s", i, resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Kind != "panic" || !strings.Contains(e.Error, "panic in cilk5-cs") {
			t.Fatalf("poison attempt %d: bad error: %+v", i, e)
		}
	}

	// Threshold crossed: the cell is quarantined, refused without running.
	resp, body := postJob(t, ts.URL, poison)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined cell: status %d, want 422\n%s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Kind != "quarantined" {
		t.Fatalf("quarantined cell: kind %q, want quarantined", e.Kind)
	}
	if got := poisonRuns.Load(); got != 2 {
		t.Fatalf("poison cell ran %d times, want 2 (quarantine must not run it)", got)
	}

	// The daemon survived it all: a healthy cell still completes.
	resp, body = postJob(t, ts.URL, JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy job after panics: status %d\n%s", resp.StatusCode, body)
	}

	// /healthz accounts for the carnage and names the cell.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if h.Failed != 2 || h.QuarantineDenied != 1 || len(h.Quarantined) != 1 {
		t.Fatalf("healthz counters off: %+v", h)
	}
	if !strings.Contains(h.Quarantined[0], "cilk5-cs") {
		t.Fatalf("quarantined cell key %q does not name the app", h.Quarantined[0])
	}
}

// TestBackpressure: with a single worker wedged and a single queue
// slot taken, the next job is rejected with 429 + Retry-After instead
// of queueing unboundedly.
func TestBackpressure(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(string, string) {
				once.Do(func() { close(entered) })
				<-release
			}
		},
	})
	released := false
	defer func() {
		if !released {
			close(release) // unwedge the worker so cleanup's Drain is fast
		}
	}()

	job := func(app string) JobRequest {
		return JobRequest{Config: testCfg, App: app, Size: "empty"}
	}
	results := make(chan int, 2)
	go func() {
		resp, _ := postJob(t, ts.URL, job("cilk5-cs"))
		results <- resp.StatusCode
	}()
	<-entered // worker wedged
	go func() {
		resp, _ := postJob(t, ts.URL, job("cilk5-mt"))
		results <- resp.StatusCode
	}()
	// Wait until the second job occupies the one queue slot.
	deadline := time.After(2 * time.Second)
	for {
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		json.NewDecoder(hr.Body).Decode(&h)
		hr.Body.Close()
		if h.Queued == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("second job never reached the queue")
		case <-time.After(2 * time.Millisecond):
		}
	}

	resp, body := postJob(t, ts.URL, job("cilk5-nq"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity job: status %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if e := decodeErr(t, body); e.Kind != "overload" {
		t.Fatalf("429 kind %q, want overload", e.Kind)
	}

	close(release)
	released = true
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("wedged/queued job finished with %d, want 200", code)
		}
	}
}

// TestWallTimeout: a job that exceeds the wall-clock budget is killed
// by kernel interrupt and reported as a 504 timeout; the worker and
// daemon survive.
func TestWallTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, WallTimeout: 250 * time.Millisecond,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(cfg, app string) {
				if app == "cilk5-cs" {
					time.Sleep(time.Second) // blow the wall budget
				}
			}
		},
	})
	resp, body := postJob(t, ts.URL, JobRequest{Config: testCfg, App: "cilk5-cs", Size: "empty"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow job: status %d, want 504\n%s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Kind != "timeout" {
		t.Fatalf("slow job kind %q, want timeout: %+v", e.Kind, e)
	}
	// The pool is not poisoned: the next (fast) job completes.
	resp, body = postJob(t, ts.URL, JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast job after a timeout: status %d\n%s", resp.StatusCode, body)
	}
}

// TestWallTimeoutsLeakNothing: a job killed mid-run by the wall-clock
// budget unwinds its 64 parked procs, so timeouts do not cost the daemon
// goroutines (or the machines their stacks pin) for the rest of its life.
// The budget runs out when the test says so, once the job has parked
// procs, not after a fixed wall time a loaded host can spend building
// the machine.
func TestWallTimeoutsLeakNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, WallTimeout: time.Minute, QuarantineAfter: 100})
	body, err := json.Marshal(JobRequest{Config: "bT/HCC-DTS-gwb", App: "cilk5-cs", Size: "big"})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	timeOut := func() {
		t.Helper()
		// A job's wall-clock context is a child of s.baseCtx: give this
		// job a parent the test expires. The POST below carries the write
		// to the worker that reads it.
		parent, expire := context.WithCancel(context.Background())
		s.baseCtx, s.baseCancel = parent, expire
		idle := runtime.NumGoroutine()
		answered := make(chan answer, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				answered <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			answered <- answer{resp.StatusCode, b, err}
		}()
		// A proc's coroutine exists from its first resume, and only one
		// proc runs at a time: once half of the 64 have one, procs are
		// parked mid-run.
		for runtime.NumGoroutine() < idle+32 {
			select {
			case a := <-answered:
				t.Fatalf("big job answered before its procs started: status %d, %v\n%s", a.status, a.err, a.body)
			case <-time.After(time.Millisecond):
			}
		}
		expire()
		a := <-answered
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.status != http.StatusGatewayTimeout {
			t.Fatalf("big job past its budget: status %d, want 504\n%s", a.status, a.body)
		}
		if !strings.Contains(string(a.body), "blocked since cycle") {
			t.Fatalf("the timeout did not land mid-run; no proc was parked:\n%s", a.body)
		}
	}
	timeOut() // also brings up the client connection's goroutines
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		timeOut()
	}
	// A leak is 64 goroutines a job; the slack is for the HTTP stack.
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Fatalf("%d goroutines after 5 more timed-out jobs, %d before", after, before)
	}
}

// TestJobDeadlineCycles: a per-job simulated-cycle deadline fails that
// job with a 504 "deadline" error carrying the watchdog dump.
func TestJobDeadlineCycles(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJob(t, ts.URL, JobRequest{
		Config: testCfg, App: "cilk5-cs", Size: "test", DeadlineCycles: 10,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("10-cycle job: status %d, want 504\n%s", resp.StatusCode, body)
	}
	e := decodeErr(t, body)
	if e.Kind != "deadline" || !strings.Contains(e.Error, "kernel:") {
		t.Fatalf("deadline error missing kind/dump: %+v", e)
	}
}

// TestDrain: draining stops admission (503), bounces queued jobs, and
// hard-cancels in-flight work after the budget so the pool still exits.
func TestDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, err := NewServer(Config{
		Workers: 1, QueueDepth: 4,
		suiteHook: func(su *bench.Suite) {
			su.SimHook = func(string, string) {
				once.Do(func() { close(entered) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make(chan int, 2)
	submit := func(app string) {
		go func() {
			resp, _ := postJob(t, ts.URL, JobRequest{Config: testCfg, App: app, Size: "empty"})
			codes <- resp.StatusCode
		}()
	}
	submit("cilk5-cs") // wedges the one worker
	<-entered
	submit("cilk5-mt") // sits in the queue
	for len(s.queue) == 0 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan DrainReport, 1)
	go func() { done <- s.Drain(20 * time.Millisecond) }()
	// Give the drain time to pass its budget and hard-cancel, then free
	// the wedged worker; its (now cancelled) simulation dies instantly.
	time.Sleep(120 * time.Millisecond)
	resp, body := postJob(t, ts.URL, JobRequest{Config: testCfg, App: "cilk5-nq", Size: "empty"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job during drain: status %d, want 503\n%s", resp.StatusCode, body)
	}
	close(release)

	rep := <-done
	if rep.Clean {
		t.Fatal("drain with wedged+queued jobs reported Clean")
	}
	if rep.Cancelled == 0 {
		t.Fatal("drain cancelled nothing despite a queued job")
	}
	got := map[int]int{}
	for i := 0; i < 2; i++ {
		got[<-codes]++
	}
	if got[http.StatusServiceUnavailable] == 0 && got[http.StatusGatewayTimeout] == 0 {
		t.Fatalf("drained jobs got %v, want 503s/504s", got)
	}
}

// TestDrainClean: with nothing in flight, Drain is immediate and Clean.
func TestDrainClean(t *testing.T) {
	s, err := NewServer(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJob(t, ts.URL, JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job failed: %d\n%s", resp.StatusCode, body)
	}
	if rep := s.Drain(2 * time.Second); !rep.Clean || rep.Cancelled != 0 {
		t.Fatalf("idle drain not clean: %+v", rep)
	}
}

// TestRegistryEndpoints: the discovery endpoints serve the same
// registries the validators use — including every fault scenario.
func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var scenarios []struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	get("/v1/scenarios", &scenarios)
	if len(scenarios) != len(fault.Scenarios()) {
		t.Fatalf("scenarios endpoint has %d entries, registry has %d", len(scenarios), len(fault.Scenarios()))
	}
	found := false
	for _, sc := range scenarios {
		if sc.Name == "chaos-lossy-all" {
			found = sc.Desc != ""
		}
	}
	if !found {
		t.Fatal("chaos-lossy-all missing (or undescribed) in /v1/scenarios")
	}
	var configs []string
	get("/v1/configs", &configs)
	if len(configs) == 0 {
		t.Fatal("no configs served")
	}
	var appList []struct {
		Name string `json:"name"`
	}
	get("/v1/apps", &appList)
	if len(appList) != len(apps.All()) {
		t.Fatalf("apps endpoint has %d entries, registry has %d", len(appList), len(apps.All()))
	}
}

// TestFaultJobRuns: a job with a fault scenario validates against the
// registry and completes end to end; its key (and so its cache cell) is
// distinct from the fault-free run.
func TestFaultJobRuns(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	faulty := JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty", Faults: "chaos-lossy-all"}
	resp, body := postJob(t, ts.URL, faulty)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulty job: status %d\n%s", resp.StatusCode, body)
	}
	var runs []map[string]any
	if err := json.Unmarshal(body, &runs); err != nil || len(runs) != 1 {
		t.Fatalf("result is not a one-run JSON array: %v\n%s", err, body)
	}
	// Seed defaulting matches the CLIs: omitted seed ran as seed 1.
	if key := resp.Header.Get("X-Simd-Key"); !strings.Contains(key, "|chaos-lossy-all|1") {
		t.Fatalf("fault job key %q did not default the seed to 1", key)
	}
	clean := JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"}
	cleanResp, _ := postJob(t, ts.URL, clean)
	if jobKey(faulty) == jobKey(clean) {
		t.Fatal("faulty and clean tuples share a cache key")
	}
	if cleanResp.StatusCode != http.StatusOK {
		t.Fatalf("clean job: status %d", cleanResp.StatusCode)
	}
	if n, _ := s.Store().Len(); n != 2 {
		t.Fatalf("store has %d entries, want 2 distinct cells", n)
	}
	checkSeedCanonical(t, ts.URL, clean)
	if n, _ := s.Store().Len(); n != 2 {
		t.Fatalf("store has %d entries after non-canonical seeds, want the same 2 cells", n)
	}
}

// checkSeedCanonical posts req under a scenario with fault_seed 0 and
// under none with fault_seed 7; each must answer under the X-Simd-Key
// of its canonical tuple (seed 1, the CLIs' default, and seed 0).
func checkSeedCanonical(t *testing.T, url string, req JobRequest) {
	t.Helper()
	for _, tc := range []struct {
		faults          string
		seed, canonical uint64
	}{
		{"chaos-lossy-all", 0, 1},
		{"", 7, 0},
	} {
		req.Faults, req.FaultSeed = tc.faults, tc.seed
		resp, body := postJob(t, url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("faults %q seed %d: status %d\n%s", tc.faults, tc.seed, resp.StatusCode, body)
		}
		req.FaultSeed = tc.canonical
		if got, want := resp.Header.Get("X-Simd-Key"), jobKey(req); got != want {
			t.Errorf("faults %q seed %d: key %q, want the canonical %q", tc.faults, tc.seed, got, want)
		}
	}
}
