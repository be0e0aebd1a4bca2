package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes to decodeJob, the decode and
// validate step of POST /v1/jobs. Every input must end as a refusal
// (an ErrorJSON of kind invalid, a 400) or as a job that validates;
// none may panic. For an accepted job:
//
//   - decode -> canonical encode -> decode is a fixed point: the
//     canonical bytes decode and validate to the same canonical bytes
//     and the same size.
//   - Equal canonical bytes give an equal jobKey, and one jobKey names
//     one canonical job. The second half is what catches two jobs
//     sharing one memory-tier answer: the server answers a repeat from
//     memory by its key alone, so a field that changes the result but
//     not the key would hand one job the other's result.
//
// The canonical job leaves out what the key leaves out on purpose: the
// deadline, which never changes a successful result's bytes, and the
// fields the job's kind does not read.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"config":"bT8/HCC-DTS-gwb","app":"cilk5-cs","size":"test"}`,
		`{"kind":"run","config":"bT8/HCC-DTS-gwb","app":"cilk5-nq","size":"empty","grain":4,"faults":"chaos-lossy-all"}`,
		`{"config":"bT/MESI","app":"ligra-bfs","size":"unit","faults":"core-loss","fault_seed":9,"deadline_cycles":100}`,
		`{"kind":"open","config":"bT8/HCC-DTS-gwb","workload":"rmat-query","arrival":"bursty","rate_per_kcycle":8,"requests":32,"seed":1,"max_inflight":8,"faults":"chaos-lossy-all"}`,
		`{"kind":"open","config":"bT8/HCC-gwb","workload":"reduce","arrival":"poisson","rate_per_kcycle":4,"requests":8}`,
		`{"kind":"open","config":"bT8/HCC-gwb","workload":"rmat-query","arrival":"poisson","rate_per_kcycle":1e-300,"requests":4096}`,
		`{"config":"bT/MESI","app":"cilk5-cs","grain":-1}`,
		`{"kind":"closed"}`,
		`[]`, `{`, ``, `null`,
	} {
		f.Add([]byte(seed))
	}
	keys := map[string]string{} // jobKey -> canonical bytes, across inputs
	f.Fuzz(func(t *testing.T, body []byte) {
		req, size, errRes := decodeJob(bytes.NewReader(body))
		if errRes != nil {
			if errRes.Kind != "invalid" || errRes.Error == "" {
				t.Fatalf("refusal %+v is not an invalid-request body", errRes)
			}
			return
		}
		canon := canonicalJob(t, req)
		again, size2, errRes := decodeJob(bytes.NewReader(canon))
		if errRes != nil {
			t.Fatalf("canonical bytes %s refused: %+v", canon, errRes)
		}
		if c := canonicalJob(t, again); !bytes.Equal(c, canon) || size2 != size {
			t.Fatalf("not a fixed point:\n  %s (size %v)\n  %s (size %v)", canon, size, c, size2)
		}
		key := jobKey(req)
		if key != jobKey(again) {
			t.Fatalf("equal canonical bytes %s, keys %q and %q", canon, key, jobKey(again))
		}
		if prev, ok := keys[key]; ok && prev != string(canon) {
			t.Fatalf("key %q names two jobs:\n  %s\n  %s", key, prev, canon)
		}
		keys[key] = string(canon)
	})
}

// canonicalJob encodes the part of an accepted job that its result
// depends on.
func canonicalJob(t *testing.T, req JobRequest) []byte {
	req.DeadlineCycles = 0
	if req.Kind == "open" {
		req.App, req.Size, req.Grain = "", "", 0
	} else {
		req.Kind = ""
		req.Workload, req.Arrival, req.RatePerKCycle = "", "", 0
		req.Requests, req.Seed, req.MaxInFlight = 0, 0, 0
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
