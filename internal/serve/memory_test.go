package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/store"
)

// storeFile returns the one entry file in a store directory.
func storeFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one store entry in %s, have %v (%v)", dir, files, err)
	}
	return files[0]
}

// getHealth reads /healthz.
func getHealth(t *testing.T, url string) Health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestWarmRepeatIsAnsweredFromMemory: once a job has run, its repeat
// is answered from memory, with a store or without one, and /healthz
// counts the memory hits. With a store, corrupting the store file under
// a live daemon changes neither the answer nor the store's counters. A
// fresh daemon holds nothing in memory: without a store it simulates
// again; with one, its disk read finds the corruption, misses and
// simulates again. Either way to the same bytes.
func TestWarmRepeatIsAnsweredFromMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  func() string
	}{
		{"store", t.TempDir},
		{"memory-only", func() string { return "" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.dir()
			req := JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"}
			s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
			resp, ran := postJob(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Simd-Result") != "ran" {
				t.Fatalf("first job: %d %q\n%s", resp.StatusCode, resp.Header.Get("X-Simd-Result"), ran)
			}
			var before store.Stats
			if dir != "" {
				path := storeFile(t, dir)
				image, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				image[len(image)-2] ^= 0x20 // a flipped payload byte: the checksum no longer matches
				if err := os.WriteFile(path, image, 0o600); err != nil {
					t.Fatal(err)
				}
				before = s.Store().Stats()
			}

			for i := 0; i < 2; i++ {
				resp, again := postJob(t, ts.URL, req)
				if got := resp.Header.Get("X-Simd-Result"); resp.StatusCode != http.StatusOK || got != "store" {
					t.Fatalf("repeat %d: %d %q, want 200 store", i, resp.StatusCode, got)
				}
				if !bytes.Equal(again, ran) {
					t.Fatalf("repeat %d: bytes differ from the run's", i)
				}
			}
			h := getHealth(t, ts.URL)
			want := MemoryStats{Hits: 2, Entries: 1, Bytes: len(jobKey(req)) + len(ran)}
			if h.StoreMemory == nil || *h.StoreMemory != want || h.Completed != 3 {
				t.Fatalf("healthz store_memory = %+v, completed %d: want %+v of 3 completed jobs", h.StoreMemory, h.Completed, want)
			}
			if dir == "" {
				if h.Store != nil {
					t.Fatalf("healthz of a memory-only daemon has a store: %+v", h.Store)
				}
			} else {
				if after := s.Store().Stats(); after != before {
					t.Fatalf("a memory answer touched the disk store: %+v, then %+v", before, after)
				}
				if h.Store == nil || h.Store.Hits != 0 {
					t.Fatalf("healthz store %+v: want 0 disk hits", h.Store)
				}
			}
			ts.Close()
			s.Drain(2 * time.Second)

			fresh, tsFresh := newTestServer(t, Config{Workers: 1, StoreDir: dir})
			resp, rerun := postJob(t, tsFresh.URL, req)
			if got := resp.Header.Get("X-Simd-Result"); resp.StatusCode != http.StatusOK || got != "ran" {
				t.Fatalf("fresh daemon: %d %q, want 200 ran", resp.StatusCode, got)
			}
			if !bytes.Equal(rerun, ran) {
				t.Fatal("fresh daemon's simulation differs from the first")
			}
			if dir == "" {
				return
			}
			if st := fresh.Store().Stats(); st.Corrupt != 1 || st.Hits != 0 {
				t.Fatalf("fresh daemon's store: %+v, want one corrupt miss", st)
			}
		})
	}
}

// storeStubs puts a distinct stub payload on disk under the key of
// each of n valid jobs and returns the jobs with their payloads.
func storeStubs(t *testing.T, s *Server, n int) ([]JobRequest, [][]byte) {
	t.Helper()
	var reqs []JobRequest
	var payloads [][]byte
	for _, a := range apps.All() {
		for _, size := range []string{"empty", "unit", "test"} {
			if len(reqs) == n {
				return reqs, payloads
			}
			req := JobRequest{Config: testCfg, App: a.Name, Size: size}
			payload := []byte(fmt.Sprintf(`[{"stub":%q}]`+"\n", jobKey(req)))
			if err := s.Store().Put(jobKey(req), payload); err != nil {
				t.Fatal(err)
			}
			reqs, payloads = append(reqs, req), append(payloads, payload)
		}
	}
	t.Fatalf("only %d distinct jobs, want %d", len(reqs), n)
	return nil, nil
}

// ranJobs runs n distinct empty-size jobs, one per app, and returns
// the jobs with their results.
func ranJobs(t *testing.T, url string, n int) ([]JobRequest, [][]byte) {
	t.Helper()
	var reqs []JobRequest
	var payloads [][]byte
	for _, a := range apps.All()[:n] {
		req := JobRequest{Config: testCfg, App: a.Name, Size: "empty"}
		resp, body := postJob(t, url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d\n%s", jobKey(req), resp.StatusCode, body)
		}
		reqs, payloads = append(reqs, req), append(payloads, body)
	}
	return reqs, payloads
}

// setBudget replaces s's memory with an empty one of the given budget.
func setBudget(s *Server, budget int) {
	s.mu.Lock()
	s.mem = newMemTier(budget)
	s.mu.Unlock()
}

// heldBytes checks that s's memory holds no more than its budget and
// counts exactly the bytes of its entries, and returns its keys.
func heldBytes(t *testing.T, s *Server) map[string]bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, sum := map[string]bool{}, 0
	for k, p := range s.mem.entries {
		keys[k] = true
		sum += len(k) + len(p)
	}
	if sum != s.mem.used || s.mem.used > s.mem.budget {
		t.Fatalf("memory holds %d bytes, counts %d, budget %d", sum, s.mem.used, s.mem.budget)
	}
	return keys
}

// TestMemoryStaysInBudget churns twelve results through a memory that
// holds about four, with a store (stubs on disk) and without one (run
// results). The held bytes never exceed the budget and always equal
// the sum over the held entries. With a store, every answer is a store
// answer and an evicted key is answered by a verified disk read again;
// without one, an evicted key is simulated again.
func TestMemoryStaysInBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  func() string
	}{
		{"store", t.TempDir},
		{"memory-only", func() string { return "" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.dir()
			s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
			var reqs []JobRequest
			var payloads [][]byte
			if dir != "" {
				reqs, payloads = storeStubs(t, s, 12)
			} else {
				reqs, payloads = ranJobs(t, ts.URL, 12)
			}
			smallest, largest := 1<<30, 0
			for i, req := range reqs {
				n := len(jobKey(req)) + len(payloads[i])
				smallest, largest = min(smallest, n), max(largest, n)
			}
			budget := 4*largest + largest/2
			setBudget(s, budget)
			for round := 0; round < 3; round++ {
				for i, req := range reqs {
					resp, body := postJob(t, ts.URL, req)
					got := resp.Header.Get("X-Simd-Result")
					if !bytes.Equal(body, payloads[i]) || (dir != "" && got != "store") {
						t.Fatalf("round %d job %d: %q %q, want the first answer's bytes", round, i, got, body)
					}
					heldBytes(t, s)
				}
			}
			keys := heldBytes(t, s)
			if len(keys) == 0 || len(keys) > budget/smallest {
				t.Fatalf("memory holds %d entries, want 1 to %d", len(keys), budget/smallest)
			}
			for i, req := range reqs {
				if keys[jobKey(req)] {
					continue
				}
				want := "ran"
				var before store.Stats
				if dir != "" {
					want, before = "store", s.Store().Stats()
				}
				resp, body := postJob(t, ts.URL, req)
				if got := resp.Header.Get("X-Simd-Result"); got != want || !bytes.Equal(body, payloads[i]) {
					t.Fatalf("evicted job %d: %q %q, want %s and the first answer's bytes", i, got, body, want)
				}
				if dir != "" {
					if after := s.Store().Stats(); after.Hits != before.Hits+1 {
						t.Fatalf("evicted job %d was not read from disk: %+v, then %+v", i, before, after)
					}
				}
				return
			}
			t.Fatal("churn evicted nothing")
		})
	}
}

// TestMemoryOnlyServerStaysInBudget: a daemon without a store keeps
// every result it produces, and no more than its memory's budget of
// them. Two hundred open jobs with distinct seeds pass through a
// memory that holds about ten; the held bytes stay within the budget
// throughout, and a repeat of the last job is a memory answer.
func TestMemoryOnlyServerStaysInBudget(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := openReq()
	req.Requests = 1
	resp, body := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first job: %d\n%s", resp.StatusCode, body)
	}
	setBudget(s, 10*(len(jobKey(req))+len(body)))
	for seed := uint64(1); seed <= 200; seed++ {
		req.Seed = seed
		if resp, body := postJob(t, ts.URL, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d\n%s", seed, resp.StatusCode, body)
		}
		heldBytes(t, s)
	}
	if keys := heldBytes(t, s); len(keys) < 5 {
		t.Fatalf("memory holds %d of 200 results, want about 10", len(keys))
	}
	if resp, _ := postJob(t, ts.URL, req); resp.Header.Get("X-Simd-Result") != "store" {
		t.Fatalf("repeat of the last job: %q, want store", resp.Header.Get("X-Simd-Result"))
	}
}

// TestMemoryOverBudgetIsNotKept: a payload larger than the whole
// budget is served from disk every time and never held.
func TestMemoryOverBudgetIsNotKept(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: t.TempDir()})
	reqs, payloads := storeStubs(t, s, 1)
	setBudget(s, len(payloads[0]))
	for i := 0; i < 2; i++ {
		if resp, body := postJob(t, ts.URL, reqs[0]); !bytes.Equal(body, payloads[0]) {
			t.Fatalf("request %d: %d %q", i, resp.StatusCode, body)
		}
	}
	if st, h := s.Store().Stats(), getHealth(t, ts.URL); st.Hits != 2 || *h.StoreMemory != (MemoryStats{}) {
		t.Fatalf("store %+v, memory %+v: want two disk hits and nothing held", st, *h.StoreMemory)
	}
}

// TestMemoryUnderConcurrency: clients hit, miss and run jobs at once
// while a small memory evicts; every answer is the right bytes. Run
// under -race, this is the check that every use of the memory holds
// the server's lock.
func TestMemoryUnderConcurrency(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, StoreDir: t.TempDir()})
	reqs, payloads := storeStubs(t, s, 8)
	// Two jobs on another machine have no stub: they are simulated, and
	// their answers are checked against each other.
	reqs = append(reqs, JobRequest{Config: "bT8/MESI", App: "cilk5-nq", Size: "empty"},
		JobRequest{Config: "bT8/MESI", App: "cilk5-mt", Size: "empty"})
	payloads = append(payloads, nil, nil)
	setBudget(s, 2048) // one simulated result (about 1 KB) and some stubs

	const clients, rounds = 6, 8
	bodies := make([][][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range reqs {
					req := reqs[(i+c)%len(reqs)]
					body, _ := json.Marshal(req)
					resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", jobKey(req), resp.StatusCode)
						return
					}
					bodies[c] = append(bodies[c], buf.Bytes())
				}
				getHealth(t, ts.URL)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ran := map[int][]byte{}
	for c := range bodies {
		for n, body := range bodies[c] {
			i := (n%len(reqs) + c) % len(reqs)
			want := payloads[i]
			if want == nil {
				if ran[i] == nil {
					ran[i] = body
				}
				want = ran[i]
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("client %d answer %d (%s) has the wrong bytes", c, n, jobKey(reqs[i]))
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem.used > s.mem.budget || s.mem.hits == 0 {
		t.Fatalf("memory after the run: %d of %d bytes, %d hits", s.mem.used, s.mem.budget, s.mem.hits)
	}
}

// TestFailedPutIsNotKept: memory holds only bytes that reached the
// disk. With the store directory gone, a job's Put fails, so its repeat
// is not a store answer.
func TestFailedPutIsNotKept(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Config: testCfg, App: "cilk5-mt", Size: "empty"}
	for i := 0; i < 2; i++ {
		resp, body := postJob(t, ts.URL, req)
		if got := resp.Header.Get("X-Simd-Result"); resp.StatusCode != http.StatusOK || got != "ran" {
			t.Fatalf("request %d: %d %q, want 200 ran\n%s", i, resp.StatusCode, got, body)
		}
	}
	if st, h := s.Store().Stats(), getHealth(t, ts.URL); st.Errors != 2 || *h.StoreMemory != (MemoryStats{}) {
		t.Fatalf("store %+v, memory %+v: want two failed puts and nothing held", st, *h.StoreMemory)
	}
}
