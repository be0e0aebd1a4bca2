// Package serve turns the bench suite into a long-running,
// hardened-first simulation service: clients POST (config, app, size,
// grain, fault scenario, fault seed) jobs and get back the canonical
// result JSON — byte-identical to `paperbench -json` for the same
// tuple.
//
// The robustness contract, in order of the request path:
//
//   - Admission control: a bounded queue in front of a bounded worker
//     pool. Over capacity means 429 + Retry-After, never unbounded
//     goroutine growth.
//   - Poison-job isolation: a job that panics or blows its deadline
//     fails alone with a structured error; after quarantineAfter
//     consecutive failures its cell is quarantined and refused upfront,
//     so one poison tuple cannot monopolize the pool.
//   - Per-job deadlines: a simulated-cycle watchdog (each config's
//     default, or the job's deadline_cycles; machine-state dump on
//     expiry) plus an optional wall-clock budget enforced by a kernel
//     interrupt.
//   - Verified results: every closed-loop result is checked against
//     its serial reference before it is answered, kept or stored.
//   - Bounded memory of results: one read-through memory, capped in
//     bytes, answers repeats without simulating. A job's suite lives
//     only as long as the job.
//   - Crash-safe persistence: with a store directory, results also land
//     in a content-addressed disk store (internal/store) written
//     atomically and verified on every disk read, so warm results
//     survive restarts and a corrupt entry is a miss, never a lie.
//   - Graceful drain: Drain stops admission, lets in-flight work finish
//     inside a budget, hard-cancels the rest, and accounts for every
//     accepted job.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/fault"
	"bigtiny/internal/machine"
	"bigtiny/internal/openload"
	"bigtiny/internal/sim"
	"bigtiny/internal/store"
)

// Config sets the server's capacity and policy knobs. The zero value is
// usable: all-core workers, a 64-deep queue, no disk store.
type Config struct {
	// Workers is the simulation worker-pool size (<= 0: all host cores).
	Workers int
	// QueueDepth bounds the admission queue (<= 0: 64). Requests beyond
	// queue+pool capacity are rejected with 429.
	QueueDepth int
	// StoreDir roots the crash-safe result store ("" disables the disk
	// tier; results then live only in the bounded memory).
	StoreDir string
	// WallTimeout is the per-job wall-clock budget (0: none). On expiry
	// the job's kernel is interrupted and the job fails with a timeout.
	WallTimeout time.Duration

	// suiteHook, when non-nil, is applied to every suite the server
	// creates. Tests use it to install bench.Suite.SimHook failure
	// injectors; it has no production use.
	suiteHook func(*bench.Suite)
}

// JobRequest is the POST /v1/jobs body. Size is a name ("test", "ref",
// "big", "empty", "unit"); Faults a fault.Scenarios name. FaultSeed
// defaults to 1 when a scenario is set (matching the CLIs) and is
// forced to 0 otherwise, so equal tuples always hit equal cache keys.
//
// Kind selects the job family: "" or "run" is a closed-loop (config,
// app) simulation; "open" is an open-system serving run, which takes
// the Workload/Arrival/RatePerKCycle/Requests/Seed/MaxInFlight fields
// instead of App/Size/Grain.
type JobRequest struct {
	Kind      string `json:"kind,omitempty"`
	Config    string `json:"config"`
	App       string `json:"app,omitempty"`
	Size      string `json:"size,omitempty"`
	Grain     int    `json:"grain,omitempty"`
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// DeadlineCycles bounds this job in simulated cycles (0: the
	// machine configuration's own watchdog default).
	DeadlineCycles uint64 `json:"deadline_cycles,omitempty"`

	// Open-system fields (Kind == "open").
	Workload      string  `json:"workload,omitempty"`
	Arrival       string  `json:"arrival,omitempty"`
	RatePerKCycle float64 `json:"rate_per_kcycle,omitempty"`
	Requests      int     `json:"requests,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
	MaxInFlight   int     `json:"max_inflight,omitempty"`
}

// openSpec builds the openload spec an "open" job describes.
func openSpec(req JobRequest) openload.Spec {
	return openload.Spec{
		Workload:    req.Workload,
		Arrival:     req.Arrival,
		RatePerK:    req.RatePerKCycle,
		Requests:    req.Requests,
		Seed:        req.Seed,
		MaxInFlight: req.MaxInFlight,
	}
}

// quarantineAfter is the number of consecutive failures after which a
// cell is quarantined.
const quarantineAfter = 3

// maxOpenRequests bounds one open job's arrival count: the request
// carries a free parameter that scales simulation work, and a bounded
// service must bound it upfront rather than let the watchdog find out.
const maxOpenRequests = 4096

// ErrorJSON is the structured error body for every non-200 response.
// Kind is one of: invalid, overload, quarantined, draining, panic,
// deadline, timeout, internal.
type ErrorJSON struct {
	Error      string `json:"error"`
	Kind       string `json:"kind"`
	Config     string `json:"config,omitempty"`
	App        string `json:"app,omitempty"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// cellState tracks one job cell's health for poison containment.
type cellState struct {
	failures    int
	quarantined bool
	lastErr     string
}

// job is one accepted request moving through the pool.
type job struct {
	req  JobRequest
	size apps.Size
	key  string

	done   chan struct{}
	once   sync.Once
	status int
	body   []byte // success payload (canonical result JSON)
	errRes *ErrorJSON
	source string // "ran" or "store", for the X-Simd-Result header
}

// finish publishes the job's outcome exactly once.
func (j *job) finish(status int, body []byte, errRes *ErrorJSON, source string) {
	j.once.Do(func() {
		j.status, j.body, j.errRes, j.source = status, body, errRes, source
		close(j.done)
	})
}

// Server is the simulation service. Create with NewServer, start the
// pool with Start, mount Handler on an http.Server, and stop with
// Drain.
type Server struct {
	cfg   Config
	store *store.Store // nil when the disk tier is disabled
	queue chan *job
	quit  chan struct{} // closed at the end of Drain: workers + waiters bail

	baseCtx    context.Context // parent of every job context; Drain cancels it
	baseCancel context.CancelFunc

	draining atomic.Bool
	open     atomic.Int64 // accepted jobs not yet finished (queued + running)
	inflight atomic.Int64 // jobs currently simulating

	mu    sync.Mutex
	cells map[string]*cellState // failing cells only
	mem   *memTier

	wg sync.WaitGroup // worker pool

	drainOnce sync.Once
	drainRep  DrainReport

	accepted    atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	rejected    atomic.Uint64
	quarantined atomic.Uint64 // requests refused because their cell is poisoned
}

// NewServer builds the service (and opens/creates its store directory).
// Call Start before serving traffic.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueDepth),
		quit:  make(chan struct{}),
		cells: make(map[string]*cellState),
		mem:   newMemTier(memBudget),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	return s, nil
}

// Store exposes the disk tier (nil when disabled); tests and the smoke
// harness use it.
func (s *Server) Store() *store.Store { return s.store }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.quit:
					return
				case j := <-s.queue:
					s.inflight.Add(1)
					s.runJob(j)
					s.inflight.Add(-1)
				}
			}
		}()
	}
}

// DrainReport says how a drain went.
type DrainReport struct {
	// Clean is true when every accepted job finished (or was answered)
	// and the pool exited inside the budget.
	Clean bool
	// Cancelled counts jobs hard-cancelled or refused mid-drain.
	Cancelled int
}

// Drain performs the graceful-shutdown sequence: stop admitting, give
// queued and in-flight jobs up to budget to finish, then hard-cancel
// (kernel interrupt) whatever is left and fail still-queued jobs with
// a draining error so no caller is left hanging. It returns once the
// pool has exited (bounded by a short grace period after the budget).
// Repeated calls return the first drain's report.
func (s *Server) Drain(budget time.Duration) DrainReport {
	s.drainOnce.Do(func() { s.drainRep = s.drain(budget) })
	return s.drainRep
}

func (s *Server) drain(budget time.Duration) DrainReport {
	s.draining.Store(true)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) && s.open.Load() > 0 {
		time.Sleep(2 * time.Millisecond)
	}

	var rep DrainReport
	// Hard phase: interrupt in-flight kernels, bounce queued jobs.
	s.baseCancel()
	for {
		select {
		case j := <-s.queue:
			rep.Cancelled++
			j.finish(http.StatusServiceUnavailable, nil, &ErrorJSON{
				Error: "server draining", Kind: "draining",
				Config: j.req.Config, App: j.req.App,
			}, "")
			s.open.Add(-1)
			s.failed.Add(1)
		default:
			goto swept
		}
	}
swept:
	close(s.quit)
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		rep.Clean = rep.Cancelled == 0 && s.open.Load() == 0
	case <-time.After(5 * time.Second):
		// A worker is wedged somewhere no interrupt reaches (should be
		// impossible: simulations honour interrupts). Report dirty; the
		// process is exiting anyway.
	}
	rep.Cancelled += int(s.inflight.Load())
	return rep
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/v1/configs", s.handleConfigs)
	mux.HandleFunc("/v1/apps", s.handleApps)
	return mux
}

// writeErr emits a structured error response.
func writeErr(w http.ResponseWriter, status int, e *ErrorJSON) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfter))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(e)
}

// jobKey is the canonical, restart-stable cell address: it keys the
// disk store and the quarantine table. Deadlines are deliberately
// excluded — they never change a successful result's bytes.
func jobKey(req JobRequest) string {
	if req.Kind == "open" {
		return strings.Join([]string{
			"v1-open", req.Config, openSpec(req).Key(),
			req.Faults, fmt.Sprintf("%d", req.FaultSeed),
		}, "|")
	}
	return strings.Join([]string{
		"v1", req.Config, req.App, req.Size,
		fmt.Sprintf("%d", req.Grain), req.Faults, fmt.Sprintf("%d", req.FaultSeed),
	}, "|")
}

// validate checks a request with the checks btsim runs —
// bench.Check for a closed-loop job; machine.Lookup, the spec and
// openload.Options.Check for an open one — and canonicalizes its fault
// seed (openload.Options.Seed), so equal tuples hit equal cache keys.
func validate(req *JobRequest) (apps.Size, *ErrorJSON) {
	env := openload.Options{Scenario: req.Faults, FaultSeed: req.FaultSeed}
	var size apps.Size
	var err error
	switch req.Kind {
	case "", "run":
		size, err = bench.Check(req.Config, req.App, req.Size, req.Grain, env)
	case "open":
		err = checkOpen(*req, env)
	default:
		err = fmt.Errorf("serve: unknown job kind %q (have run, open)", req.Kind)
	}
	if err != nil {
		return 0, &ErrorJSON{Error: err.Error(), Kind: "invalid", Config: req.Config, App: req.App}
	}
	req.FaultSeed = env.Seed()
	return size, nil
}

// decodeJob reads a POST /v1/jobs body and validates it: a job ready
// to key and run, or the 400 body that refuses it (FuzzJobRequest).
func decodeJob(body io.Reader) (JobRequest, apps.Size, *ErrorJSON) {
	var req JobRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, 0, &ErrorJSON{Error: "bad request body: " + err.Error(), Kind: "invalid"}
	}
	size, errRes := validate(&req)
	return req, size, errRes
}

// checkOpen checks an open job's settings.
func checkOpen(req JobRequest, env openload.Options) error {
	if _, err := machine.Lookup(req.Config); err != nil {
		return err
	}
	if req.App != "" || req.Size != "" || req.Grain != 0 {
		return fmt.Errorf("serve: open jobs take workload/arrival, not app/size/grain")
	}
	if req.Requests > maxOpenRequests {
		return fmt.Errorf("serve: open job requests %d exceeds the per-job cap %d",
			req.Requests, maxOpenRequests)
	}
	if err := openSpec(req).Validate(); err != nil {
		return err
	}
	return env.Check()
}

// handleJobs is the synchronous job endpoint: validate, serve from the
// store if possible, admit into the bounded queue, wait for the result.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, &ErrorJSON{Error: "POST only", Kind: "invalid"})
		return
	}
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, &ErrorJSON{Error: "server draining", Kind: "draining"})
		return
	}
	req, size, errRes := decodeJob(r.Body)
	if errRes != nil {
		writeErr(w, http.StatusBadRequest, errRes)
		return
	}
	key := jobKey(req)

	// Memory and store first: a kept result needs no pool slot and no
	// quarantine decision — kept bytes are from a past success, which
	// also means the cell is healthy: fromStore clears its failure
	// streak so transient earlier failures cannot quarantine a cell
	// that can be answered.
	if payload, ok := s.fromStore(key); ok {
		s.accepted.Add(1)
		s.completed.Add(1)
		writeResult(w, payload, "store", key)
		return
	}

	if msg, quarantined := s.cellQuarantined(key); quarantined {
		s.quarantined.Add(1)
		writeErr(w, http.StatusUnprocessableEntity, &ErrorJSON{
			Error: fmt.Sprintf("cell quarantined after repeated failures (last: %s)", msg),
			Kind:  "quarantined", Config: req.Config, App: req.App,
		})
		return
	}

	j := &job{req: req, size: size, key: key, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.accepted.Add(1)
		s.open.Add(1)
	default:
		s.rejected.Add(1)
		writeErr(w, http.StatusTooManyRequests, &ErrorJSON{
			Error: "queue full", Kind: "overload",
			Config: req.Config, App: req.App, RetryAfter: 1,
		})
		return
	}

	select {
	case <-j.done:
		if j.errRes != nil {
			writeErr(w, j.status, j.errRes)
			return
		}
		writeResult(w, j.body, j.source, key)
	case <-s.quit:
		// Drain ended and this job was neither run nor swept (it raced
		// past the admission check); answer rather than hang.
		writeErr(w, http.StatusServiceUnavailable, &ErrorJSON{Error: "server draining", Kind: "draining"})
	case <-r.Context().Done():
		// Client gone. The worker still finishes the job so the result
		// is kept for the retry.
	}
}

// writeResult emits a success payload with provenance headers.
func writeResult(w http.ResponseWriter, payload []byte, source, key string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Simd-Result", source)
	w.Header().Set("X-Simd-Key", key)
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// suiteFor builds the suite one job runs in; the job drops it after.
func (s *Server) suiteFor(req JobRequest, size apps.Size) *bench.Suite {
	su := bench.NewSuite(size)
	su.Grain = req.Grain
	su.Env = openload.Options{Scenario: req.Faults, FaultSeed: req.FaultSeed, Deadline: sim.Time(req.DeadlineCycles)}
	if s.cfg.suiteHook != nil {
		s.cfg.suiteHook(su)
	}
	return su
}

// runJob executes one job on a worker: simulate, keep and persist,
// classify failures, and update the cell's quarantine state.
func (s *Server) runJob(j *job) {
	defer s.open.Add(-1)
	ctx := s.baseCtx
	if s.cfg.WallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.WallTimeout)
		defer cancel()
	}
	suite := s.suiteFor(j.req, j.size)
	var payload []byte
	var err error
	if j.req.Kind == "open" {
		payload, err = suite.OpenResultJSON(ctx, j.req.Config, j.req.Faults, j.req.FaultSeed, openSpec(j.req))
	} else {
		payload, err = suite.ResultJSON(ctx, j.req.Config, j.req.App)
	}
	if err != nil {
		s.failed.Add(1)
		kind, status := classify(err)
		s.cellFailed(j.key, err)
		j.finish(status, nil, &ErrorJSON{
			Error: err.Error(), Kind: kind,
			Config: j.req.Config, App: j.req.App,
		}, "")
		return
	}
	s.completed.Add(1)
	// Best-effort: a failed write costs only a future recompute, and the
	// store's error counter surfaces it in /healthz. With a store, only
	// bytes that reached the disk are kept in memory.
	keep := s.store == nil || s.store.Put(j.key, payload) == nil
	s.mu.Lock()
	if keep {
		s.mem.put(j.key, payload)
	}
	s.recoveredLocked(j.key)
	s.mu.Unlock()
	j.finish(http.StatusOK, payload, nil, "ran")
}

// classify maps a simulation error to its structured kind and HTTP
// status.
func classify(err error) (kind string, status int) {
	msg := err.Error()
	// First line only: watchdog errors carry a multi-line machine dump
	// whose proc names and subsystem state must not sway the
	// classification.
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	switch {
	case strings.Contains(msg, "panic"):
		return "panic", http.StatusInternalServerError
	// Interrupts before deadlines: a wall-clock interrupt's reason often
	// embeds "context deadline exceeded", but it is a timeout, not a
	// simulated-cycle watchdog expiry.
	case strings.Contains(msg, "interrupted") || strings.Contains(msg, "cancel"):
		return "timeout", http.StatusGatewayTimeout
	case strings.Contains(msg, "deadline"):
		return "deadline", http.StatusGatewayTimeout
	default:
		return "internal", http.StatusInternalServerError
	}
}

// cellQuarantined reports whether key's cell is poisoned.
func (s *Server) cellQuarantined(key string) (lastErr string, quarantined bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cells[key]
	if c == nil || !c.quarantined {
		return "", false
	}
	return c.lastErr, true
}

// cellFailed records one failure and quarantines the cell when it
// crosses the threshold.
func (s *Server) cellFailed(key string, err error) {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i] // first line only; dumps stay in the job response
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cells[key]
	if c == nil {
		c = &cellState{}
		s.cells[key] = c
	}
	c.failures++
	c.lastErr = msg
	if c.failures >= quarantineAfter {
		c.quarantined = true
	}
}

// recoveredLocked clears a cell's failure streak after a success,
// dropping its entry. The caller holds s.mu.
func (s *Server) recoveredLocked(key string) {
	delete(s.cells, key)
}

// fromStore answers key without simulating: from memory when the bytes
// are held, else, with a store, from a verified disk read, whose
// payload it then keeps. Either way the cell has succeeded before, so
// its failure streak is cleared.
func (s *Server) fromStore(key string) ([]byte, bool) {
	s.mu.Lock()
	payload, held := s.mem.get(key)
	if held {
		s.recoveredLocked(key)
	}
	s.mu.Unlock()
	if held || s.store == nil {
		return payload, held
	}
	payload, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	// A copy, so memory holds the payload and not the entry image
	// around it.
	payload = bytes.Clone(payload)
	s.mu.Lock()
	s.mem.put(key, payload)
	s.recoveredLocked(key)
	s.mu.Unlock()
	return payload, true
}

// memBudget caps the bytes (key plus payload) the server keeps in
// memory. Measured payloads: a test-size run result is 1.0–1.2 KB (the
// 143 Table III cells total 157 KB) and an open result 0.6–0.75 KB, so
// 16 MiB holds about 13 000 results, the whole Table III grid a
// hundred times over.
const memBudget = 16 << 20

// memTier is the server's one memory of results. Without a store it
// keeps every result a job produced; with one, the payloads of keys
// this process wrote to the disk store itself or read back from it
// verified. Results are content-addressed and deterministic, and
// nothing writes to held bytes, so a held payload is the bytes a new
// simulation or a verified disk read would give, without either. A
// restarted daemon starts empty. Guarded by Server.mu.
type memTier struct {
	budget  int // bytes, key plus payload
	used    int
	entries map[string][]byte
	hits    uint64
}

func newMemTier(budget int) *memTier {
	return &memTier{budget: budget, entries: make(map[string][]byte)}
}

func (m *memTier) get(key string) ([]byte, bool) {
	payload, ok := m.entries[key]
	if ok {
		m.hits++
	}
	return payload, ok
}

// put keeps payload under key, evicting arbitrary entries until it
// fits. A payload that cannot fit on its own is not kept.
func (m *memTier) put(key string, payload []byte) {
	n := len(key) + len(payload)
	if _, ok := m.entries[key]; ok || n > m.budget {
		return
	}
	for k, p := range m.entries {
		if m.used+n <= m.budget {
			break
		}
		delete(m.entries, k)
		m.used -= len(k) + len(p)
	}
	m.entries[key] = payload
	m.used += n
}

// MemoryStats describes the server's memory of results.
type MemoryStats struct {
	Hits    uint64 `json:"hits"`
	Entries int    `json:"entries"`
	Bytes   int    `json:"bytes"` // key plus payload, at most the budget
}

// Health is the /healthz body.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	Inflight   int64  `json:"inflight"`

	Accepted         uint64 `json:"jobs_accepted"`
	Completed        uint64 `json:"jobs_completed"`
	Failed           uint64 `json:"jobs_failed"`
	Rejected         uint64 `json:"jobs_rejected_overload"`
	QuarantineDenied uint64 `json:"jobs_rejected_quarantined"`

	Store        *store.Stats `json:"store,omitempty"`
	StoreEntries int          `json:"store_entries,omitempty"`
	// StoreMemory is the memory of results. Its hits are store answers
	// that Store.Hits does not count.
	StoreMemory *MemoryStats `json:"store_memory"`

	Quarantined []string `json:"quarantined_cells,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:           "ok",
		Workers:          s.cfg.Workers,
		QueueDepth:       s.cfg.QueueDepth,
		Queued:           len(s.queue),
		Inflight:         s.inflight.Load(),
		Accepted:         s.accepted.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failed.Load(),
		Rejected:         s.rejected.Load(),
		QuarantineDenied: s.quarantined.Load(),
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	if s.store != nil {
		st := s.store.Stats()
		h.Store = &st
		if n, err := s.store.Len(); err == nil {
			h.StoreEntries = n
		}
	}
	s.mu.Lock()
	h.StoreMemory = &MemoryStats{Hits: s.mem.hits, Entries: len(s.mem.entries), Bytes: s.mem.used}
	for key, c := range s.cells {
		if c.quarantined {
			h.Quarantined = append(h.Quarantined, key)
		}
	}
	s.mu.Unlock()
	sort.Strings(h.Quarantined)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleScenarios serves the fault registry — the same single source of
// truth the CLIs validate against.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type sc struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	var out []sc
	for _, scenario := range fault.Scenarios() {
		out = append(out, sc{scenario.Name, scenario.Desc})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(machine.Names())
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	type app struct {
		Name         string `json:"name"`
		Method       string `json:"method"`
		DefaultGrain int    `json:"default_grain"`
	}
	var out []app
	for _, a := range apps.All() {
		out = append(out, app{a.Name, a.Method, a.DefaultGrain})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
