package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Main is the simulation daemon's CLI entry point (cmd/simd). It
// parses args, runs the server until SIGTERM or SIGINT, drains
// gracefully, and returns the process exit code.
func Main(args []string) int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8723", "listen address (host:port; port 0 picks a free port)")
	storeDir := fs.String("store", "", "crash-safe result store directory (empty = memory-only)")
	workers := fs.Int("workers", 0, "simulation worker pool size (0 = all host cores)")
	queueDepth := fs.Int("queue", 64, "admission queue depth; beyond it jobs get 429 + Retry-After")
	wall := fs.Duration("wall-timeout", 0, "per-job wall-clock budget, e.g. 30s (0 = none)")
	drainBudget := fs.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	smoke := fs.Bool("smoke", false, "self-test: serve on a random port, run one job end to end, SIGTERM self, exit 0 on success")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "simd: "+format+"\n", a...)
	}
	if fs.NArg() > 0 {
		logf("unexpected arguments: %v", fs.Args())
		return 2
	}
	cfg := Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		StoreDir:    *storeDir,
		WallTimeout: *wall,
	}
	if *smoke {
		*addr = "127.0.0.1:0"
	}

	s, err := NewServer(cfg)
	if err != nil {
		logf("%v", err)
		return 1
	}
	s.Start()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logf("listening on http://%s (workers=%d, queue=%d, store=%q)",
		ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth, cfg.StoreDir)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	smokeRes := make(chan error, 1)
	if *smoke {
		go func() {
			smokeRes <- runSmoke("http://" + ln.Addr().String())
			// Exit through the real signal path: the drain the smoke
			// asserts on is the one a production SIGTERM triggers.
			p, err := os.FindProcess(os.Getpid())
			if err == nil {
				p.Signal(syscall.SIGTERM)
			}
		}()
	}

	select {
	case sig := <-sigCh:
		logf("received %v, draining (budget %v)", sig, *drainBudget)
	case err := <-serveErr:
		logf("server failed: %v", err)
		return 1
	}
	rep := s.Drain(*drainBudget)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	hs.Shutdown(shutdownCtx)
	cancel()
	if rep.Clean {
		logf("drained clean")
	} else {
		logf("drained with %d job(s) cancelled", rep.Cancelled)
	}
	if *smoke {
		if err := <-smokeRes; err != nil {
			logf("smoke: FAIL: %v", err)
			return 1
		}
		logf("smoke: ok")
	}
	return 0
}

// runSmoke drives one end-to-end job against a live daemon and checks
// the result is well-formed: HTTP 200, a single-run JSON array whose
// ULI accounting satisfies Reqs == Acks + Nacks + Drops, and a repeat
// request that returns byte-identical data from memory, with or
// without a store.
func runSmoke(base string) error {
	req := []byte(`{"config":"bT8/HCC-DTS-gwb","app":"cilk5-cs","size":"empty","faults":"chaos-lossy-all"}`)
	post := func() (int, string, []byte, error) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(req))
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Simd-Result"), body, err
	}

	status, source, body, err := post()
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("job returned %d: %s", status, body)
	}
	var runs []struct {
		Config   string `json:"config"`
		Cycles   uint64 `json:"cycles"`
		ULIReqs  uint64 `json:"uli_reqs"`
		ULIAcks  uint64 `json:"uli_acks"`
		ULINacks uint64 `json:"uli_nacks"`
		ULIDrops uint64 `json:"uli_drops"`
	}
	if err := json.Unmarshal(body, &runs); err != nil {
		return fmt.Errorf("result is not JSON: %v", err)
	}
	if len(runs) != 1 || runs[0].Config != "bT8/HCC-DTS-gwb" {
		return fmt.Errorf("want a single-run array for bT8/HCC-DTS-gwb, got %s", body)
	}
	r := runs[0]
	if r.ULIReqs != r.ULIAcks+r.ULINacks+r.ULIDrops {
		return fmt.Errorf("ULI accounting identity violated: reqs=%d acks=%d nacks=%d drops=%d",
			r.ULIReqs, r.ULIAcks, r.ULINacks, r.ULIDrops)
	}

	status, source, again, err := post()
	if err != nil {
		return err
	}
	if status != http.StatusOK || !bytes.Equal(again, body) {
		return fmt.Errorf("repeat job diverged (status %d, source %q)", status, source)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	if h.Status != "ok" || h.Completed < 2 || h.Failed != 0 {
		return fmt.Errorf("healthz after two good jobs: %+v", h)
	}
	// With a store or without, the repeat is a memory answer.
	if source != "store" || h.StoreMemory == nil || h.StoreMemory.Hits == 0 {
		return fmt.Errorf("repeat job source %q, store memory %+v: want a memory answer", source, h.StoreMemory)
	}
	return nil
}
