package bench

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/wsrt"
)

// robustCfg is a small DTS machine, cheap enough that robustness tests
// can run whole simulations.
const robustCfg = "bT8/HCC-DTS-gwb"

// TestPanicContainment: a panic inside one cell's simulation must turn
// into an error on that cell — for each of two concurrent callers —
// while other cells and the process stay healthy.
func TestPanicContainment(t *testing.T) {
	s := NewSuite(apps.Empty)
	s.SimHook = func(cfg, app string) {
		if app == "cilk5-cs" {
			panic("deliberate test panic")
		}
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Run(robustCfg, "cilk5-cs")
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil || !strings.Contains(err.Error(), "panic in cilk5-cs") {
			t.Fatalf("caller %d: want contained panic error, got: %v", i, err)
		}
	}

	// The poison stays in its cell: a different app on the same suite
	// still runs, and re-running the poisoned cell re-fails (errors are
	// never cached) without wedging anything.
	if _, err := s.Run(robustCfg, "cilk5-mt"); err != nil {
		t.Fatalf("healthy cell failed after a sibling panicked: %v", err)
	}
	if _, err := s.Run(robustCfg, "cilk5-cs"); err == nil {
		t.Fatal("poisoned cell succeeded on retry without the panic being fixed")
	}
}

// TestPrewarmSurvivesPanickingWorker: one panicking cell in a Prewarm
// worklist fails Prewarm's returned error but every other item is still
// warmed and the pool shuts down cleanly.
func TestPrewarmSurvivesPanickingWorker(t *testing.T) {
	s := NewSuite(apps.Empty)
	s.SimHook = func(cfg, app string) {
		if app == "cilk5-cs" {
			panic("deliberate test panic")
		}
	}
	work := []Work{
		{Cfg: robustCfg, App: "cilk5-cs", Size: apps.Empty},
		{Cfg: robustCfg, App: "cilk5-mt", Size: apps.Empty},
		{Cfg: robustCfg, App: "cilk5-nq", Size: apps.Empty},
	}
	err := s.Prewarm(work, 3)
	if err == nil || !strings.Contains(err.Error(), "panic in cilk5-cs") {
		t.Fatalf("Prewarm did not report the contained panic: %v", err)
	}
	// The healthy cells were warmed despite the poisoned sibling.
	s.SimHook = nil
	for _, app := range []string{"cilk5-mt", "cilk5-nq"} {
		if _, err := s.Run(robustCfg, app); err != nil {
			t.Fatalf("warmed cell %s unexpectedly failed: %v", app, err)
		}
	}
}

// TestViewPanicContained: the native Cilkview analysis path has the
// same containment as simulations — a panicking analysis fails its own
// cell, and the suite keeps serving other views.
func TestViewPanicContained(t *testing.T) {
	s := NewSuite(apps.Empty)
	if _, err := s.View("no-such-app"); err == nil {
		t.Fatal("unknown app accepted")
	}
	s.SimHook = func(cfg, app string) {
		if cfg == "view" && app == "cilk5-cs" {
			panic("deliberate view panic")
		}
	}
	if _, err := s.View("cilk5-cs"); err == nil || !strings.Contains(err.Error(), "panic in view cilk5-cs") {
		t.Fatalf("view panic not contained: %v", err)
	}
	if _, err := s.View("cilk5-mt"); err != nil {
		t.Fatalf("healthy view failed after a sibling panicked: %v", err)
	}
}

// TestSuiteDeadline: a per-suite watchdog deadline turns a too-long run
// into a structured error that carries the machine-state dump.
func TestSuiteDeadline(t *testing.T) {
	s := NewSuite(apps.Test)
	s.Env.Deadline = 10 // cycles; every real run blows this instantly
	_, err := s.Run(robustCfg, "cilk5-cs")
	if err == nil {
		t.Fatal("10-cycle deadline did not fail the run")
	}
	for _, want := range []string{"deadline", "kernel:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadline error missing %q:\n%v", want, err)
		}
	}
}

// TestAbortedRunsReleaseMachine: a run cut short by the watchdog leaves
// nothing behind. Before aborted runs were unwound, 20 of these kept
// 1280 parked goroutines and 242 MB of machines alive.
func TestAbortedRunsReleaseMachine(t *testing.T) {
	abortedRun := func() {
		s := NewSuite(apps.Test)
		s.Env.Deadline = 20000 // cycles: every core is up and parked mid-task
		if _, err := s.Run("bT/HCC-DTS-gwb", "cilk5-cs"); err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("err = %v, want a deadline abort", err)
		}
	}
	abortedRun()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		abortedRun()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("%d goroutines after 20 aborted runs, %d before", n, goroutines)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 16<<20 {
		t.Errorf("live heap grew %d MiB over 20 aborted runs", grown>>20)
	}
}

// TestRunCtxCancelInterruptsSimulation: cancelling the leader's context
// mid-run aborts the kernel with an interrupt error instead of letting
// the simulation run to completion.
func TestRunCtxCancelInterruptsSimulation(t *testing.T) {
	s := NewSuite(apps.Test)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the cell, before the machine is even built:
	// the kernel watcher sees a dead context at its first instant, so
	// the interrupt lands long before a test-size simulation can finish.
	s.SimHook = func(cfg, app string) { cancel() }
	_, err := s.RunCtx(ctx, robustCfg, "cilk5-cs")
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !strings.Contains(err.Error(), "interrupted") && !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("cancelled run's error names neither interrupt nor cancellation: %v", err)
	}
}

// TestResultJSONMatchesWriteJSON: the serving layer's per-run export is
// byte-identical to the `paperbench -json` export of the same run.
func TestResultJSONMatchesWriteJSON(t *testing.T) {
	served := NewSuite(apps.Empty)
	got, err := served.ResultJSON(context.Background(), robustCfg, "cilk5-mt")
	if err != nil {
		t.Fatal(err)
	}

	cli := NewSuite(apps.Empty)
	if _, err := cli.Run(robustCfg, "cilk5-mt"); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := cli.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("ResultJSON diverges from WriteJSON:\n--- served ---\n%s\n--- cli ---\n%s", got, want.String())
	}
}

// TestMiscountedCellFails: a closed cell whose runtime counts break
// exactly-once fails like one whose output fails verification. It
// renders nothing, and the memo keeps nothing, so the next call of the
// cell runs it again.
func TestMiscountedCellFails(t *testing.T) {
	s := NewSuite(apps.Unit)
	s.plant = func(st *wsrt.RunStats) { st.StolenExec++ }
	body, err := s.ResultJSON(context.Background(), robustCfg, "cilk5-cs")
	if err == nil || !strings.Contains(err.Error(), "exactly-once violated") {
		t.Fatalf("miscounted cell: err = %v, want an exactly-once error", err)
	}
	if body != nil {
		t.Fatalf("miscounted cell rendered %d bytes", len(body))
	}
	s.plant = nil
	if _, err := s.Run(robustCfg, "cilk5-cs"); err != nil {
		t.Fatalf("the same cell with true counts: %v", err)
	}
}
