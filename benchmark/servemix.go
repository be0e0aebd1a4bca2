package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/openload"
	"bigtiny/internal/serve"
)

// serveJob is one request of the mix with the body a 200 must carry.
type serveJob struct {
	req    []byte // POST /v1/jobs body
	want   []byte // Suite.ResultJSON / OpenResultJSON for the same tuple
	cycles uint64 // simulated cycles a cold run of it covers
}

// serveMix drives the service over loopback HTTP with nproc clients
// that each wait for their reply (closed loop). Per cycle: a fresh
// store and server, every job once (cold: simulated, encoded, stored),
// then the list warmRounds more times reshuffled (warm: store hits).
type serveMix struct {
	env        env
	seed       uint64
	jobs       []serveJob
	warmRounds int
	cycle      int
}

func serveMixWorkload() workload {
	return serveMixSized(bench.AppNames(), 300)
}

// serveMixSized is the workload over the named apps with the given
// number of warm rounds.
func serveMixSized(appNames []string, warmRounds int) workload {
	return workload{
		name: "serve-mix",
		why:  "one simd job from client send to last byte: cold jobs simulate two at a time and write the store, warm jobs are decode + store read + HTTP",
		setup: func(seed uint64, e env) (instance, error) {
			jobs, err := serveJobs(serveTuples(seed, appNames), e.nproc)
			if err != nil {
				return nil, err
			}
			return &serveMix{env: e, seed: seed, jobs: jobs, warmRounds: warmRounds}, nil
		},
	}
}

// serveTuple is one job as the service sees it and as the suite runs it.
type serveTuple struct {
	req  serve.JobRequest
	work bench.Work
}

// serveTuples is the job list in seeded order: every app on the 11
// Table III configurations at test size, plus 12 open-system jobs.
func serveTuples(seed uint64, appNames []string) []serveTuple {
	var tuples []serveTuple
	for _, w := range bench.NewSuite(apps.Test).Table3Work(appNames) {
		if !w.View {
			tuples = append(tuples, serveTuple{
				req:  serve.JobRequest{Config: w.Cfg, App: w.App, Size: apps.Test.String()},
				work: w,
			})
		}
	}
	faultSeed := seed | 1 // never 0, which the server would rewrite to 1
	for _, cfg := range openChaosConfigs {
		for _, rate := range []float64{1, 4} {
			for _, faults := range []string{"", chaosScenario} {
				sp := openload.Spec{Workload: "rmat-query", Arrival: "poisson", RatePerK: rate, Requests: 64, Seed: seed}
				t := serveTuple{
					req: serve.JobRequest{Kind: "open", Config: cfg, Workload: sp.Workload, Arrival: sp.Arrival,
						RatePerKCycle: rate, Requests: sp.Requests, Seed: seed, Faults: faults},
					work: bench.Work{Cfg: cfg, Open: &sp, OpenScenario: faults},
				}
				if faults != "" {
					t.req.FaultSeed, t.work.OpenFaultSeed = faultSeed, faultSeed
				}
				tuples = append(tuples, t)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	return tuples
}

// serveJobs computes every job's expected body on the benchmark's own
// suite, nproc cells at a time — which doubles as the warm-up: the same
// simulations the cold phase runs, through the same library path.
func serveJobs(tuples []serveTuple, nproc int) ([]serveJob, error) {
	s := bench.NewSuite(apps.Test)
	work := make([]bench.Work, len(tuples))
	for i, t := range tuples {
		work[i] = t.work
	}
	if err := s.Prewarm(work, nproc); err != nil {
		return nil, fmt.Errorf("reference results: %w", err)
	}
	ctx := context.Background()
	jobs := make([]serveJob, len(tuples))
	for i, t := range tuples {
		req, err := json.Marshal(t.req)
		if err != nil {
			return nil, err
		}
		j := serveJob{req: req}
		if w := t.work; w.Open != nil {
			r, err := s.OpenRun(w.Cfg, w.OpenScenario, w.OpenFaultSeed, *w.Open)
			if err != nil {
				return nil, err
			}
			j.cycles = uint64(r.Cycles)
			j.want, err = s.OpenResultJSON(ctx, w.Cfg, w.OpenScenario, w.OpenFaultSeed, *w.Open)
			if err != nil {
				return nil, err
			}
		} else {
			r, err := s.Run(w.Cfg, w.App)
			if err != nil {
				return nil, err
			}
			j.cycles = uint64(r.Cycles)
			j.want, err = s.ResultJSON(ctx, w.Cfg, w.App)
			if err != nil {
				return nil, err
			}
		}
		jobs[i] = j
	}
	return jobs, nil
}

// phaseResult is what the clients saw in one phase.
type phaseResult struct {
	wall     time.Duration
	latency  []time.Duration
	bySource map[string]int // X-Simd-Result value, or "status NNN"
	badBody  int
}

// phase sends the jobs at the given indices, nproc clients pulling the
// next index as each gets its reply, and checks every reply's body.
func (sm *serveMix) phase(rec *recorder, parent int, name string, client *http.Client, url string, order []int) (*phaseResult, error) {
	res := &phaseResult{latency: make([]time.Duration, len(order)), bySource: map[string]int{}}
	// Each request writes only its own slot and each client its own
	// error, so the clients share nothing but the next-index counter.
	sources := make([]string, len(order))
	wrong := make([]bool, len(order))
	errs := make([]error, sm.env.nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	ph := rec.begin(name, parent, 0)
	t0 := time.Now()
	for c := 0; c < sm.env.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				job := sm.jobs[order[i]]
				id := rec.begin("request", ph, c+1)
				s0 := time.Now()
				source, body, err := post(client, url, job.req)
				res.latency[i] = time.Since(s0)
				rec.end(id)
				rec.rename(id, "request{"+source+"}")
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				sources[i], wrong[i] = source, !bytes.Equal(body, job.want)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	rec.end(ph)
	for i, source := range sources {
		res.bySource[source]++
		if wrong[i] {
			res.badBody++
		}
	}
	return res, errors.Join(errs...)
}

// post sends one job and reads the reply to its last byte. source is
// the X-Simd-Result header of a 200, else the status.
func post(client *http.Client, url string, body []byte) (source string, reply []byte, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "error", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	if err != nil {
		return "error", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("status %d", resp.StatusCode), reply, nil
	}
	return resp.Header.Get("X-Simd-Result"), reply, nil
}

func (sm *serveMix) pass(rec *recorder) (*passResult, error) {
	p := &passResult{}
	// Warm orders are seeded by (seed, cycle), so a run's cycles differ
	// from each other yet repeat under the same seed.
	rng := rand.New(rand.NewSource(int64(sm.seed)<<16 + int64(sm.cycle)))
	sm.cycle++
	n := len(sm.jobs)
	cold := make([]int, n)
	for i := range cold {
		cold[i] = i
	}
	warm := make([]int, 0, n*sm.warmRounds)
	for r := 0; r < sm.warmRounds; r++ {
		warm = append(warm, rng.Perm(n)...)
	}

	root := rec.begin("cycle", -1, 0)
	t0 := time.Now()
	dir, err := os.MkdirTemp(sm.env.tmpDir, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Workers: sm.env.nproc, StoreDir: dir})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: sm.env.nproc}
	client := &http.Client{Transport: tr}
	url := ts.URL + "/v1/jobs"

	coldRes, coldErr := sm.phase(rec, root, "cold", client, url, cold)
	var warmRes *phaseResult
	var warmErr error
	if coldErr == nil {
		warmRes, warmErr = sm.phase(rec, root, "warm", client, url, warm)
	}
	tr.CloseIdleConnections()
	ts.Close()
	drain := srv.Drain(10 * time.Second)
	st := srv.Store().Stats()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	p.wall = time.Since(t0).Seconds()
	rec.end(root)
	if coldErr != nil {
		return nil, fmt.Errorf("cold phase: %w", coldErr)
	}
	if warmErr != nil {
		return nil, fmt.Errorf("warm phase: %w", warmErr)
	}

	// One operation per job sent; a job fails when its status, source or
	// body is not the expected one.
	bad := func(r *phaseResult, wantSource string) int {
		wrong := len(r.latency) - r.bySource[wantSource]
		if r.badBody > wrong {
			wrong = r.badBody
		}
		return wrong
	}
	coldBad, warmBad := bad(coldRes, "ran"), bad(warmRes, "store")
	p.attempted = len(cold) + len(warm)
	p.failed = coldBad + warmBad
	if p.failed > 0 {
		fmt.Fprintf(sm.env.log, "FAIL: cold %v (%d wrong bodies), warm %v (%d wrong bodies)\n",
			coldRes.bySource, coldRes.badBody, warmRes.bySource, warmRes.badBody)
	}
	p.check(sm.env.log, drain.Clean, "drain was not clean: %+v", drain)
	p.check(sm.env.log, st.Errors == 0 && st.Corrupt == 0, "store errors %d corrupt %d", st.Errors, st.Corrupt)

	for _, d := range coldRes.latency {
		p.coldMs = append(p.coldMs, ms(d))
	}
	for _, d := range warmRes.latency {
		p.warmUs = append(p.warmUs, float64(d.Nanoseconds())/1e3)
	}
	for _, j := range sm.jobs {
		p.cycles += j.cycles
	}
	p.simWall = coldRes.wall.Seconds()
	p.jobs, p.jobsWall = len(warm), warmRes.wall.Seconds()
	rejected := 0
	for _, r := range []*phaseResult{coldRes, warmRes} {
		for source, c := range r.bySource {
			if source != "ran" && source != "store" {
				rejected += c
			}
		}
	}
	p.counts = map[string]uint64{
		"sim_cycles":       p.cycles,
		"serve.ran":        uint64(coldRes.bySource["ran"] + warmRes.bySource["ran"]),
		"serve.from_store": uint64(coldRes.bySource["store"] + warmRes.bySource["store"]),
		"serve.rejected":   uint64(rejected),
		"store.hits":       st.Hits,
		"store.misses":     st.Misses,
		"store.errors":     st.Errors,
	}
	return p, nil
}

// traced runs one untraced and one traced cycle; the per-layer serve
// numbers come from the traced one, whose spans are client-side.
func (sm *serveMix) traced(rec *recorder) (layerMetrics, float64, error) {
	plain, err := sm.pass(nil)
	if err != nil {
		return nil, 0, err
	}
	tr, err := sm.pass(rec)
	if err != nil {
		return nil, 0, err
	}
	if plain.failed+tr.failed > 0 {
		return nil, 0, fmt.Errorf("%d operations failed in the traced cycles", plain.failed+tr.failed)
	}
	lm := layerMetrics{
		"trace.overhead_ratio": tr.wall / plain.wall,
		"serve.warm_p50_us":    percentile(tr.warmUs, 50),
		"serve.cold_p50_ms":    percentile(tr.coldMs, 50),
		"serve.ran":            float64(tr.counts["serve.ran"]),
		"serve.from_store":     float64(tr.counts["serve.from_store"]),
		"serve.rejected":       float64(tr.counts["serve.rejected"]),
		"store.hits":           float64(tr.counts["store.hits"]),
		"store.misses":         float64(tr.counts["store.misses"]),
		"store.errors":         float64(tr.counts["store.errors"]),
	}
	// A tail is quoted only with ten samples beyond it.
	if beyond(len(tr.warmUs), 99) >= 10 {
		lm["serve.warm_p99_us"] = percentile(tr.warmUs, 99)
	}
	if beyond(len(tr.coldMs), 90) >= 10 {
		lm["serve.cold_p90_ms"] = percentile(tr.coldMs, 90)
	}
	return lm, 2, nil
}
