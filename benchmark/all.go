package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runAll runs every workload in both modes, each in a child process of
// its own, so that heap state and the peak resident set of one
// workload do not leak into the next. The children append their runs
// to the result file; the parent only sequences them.
func runAll(seed uint64, seconds float64, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("result-seed%d-%s.json", seed, time.Now().Format("20060102-150405")))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads() {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe,
				"-workload", w.name,
				"-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d: %v\n", w.name, trace, err)
				failed++
			}
		}
	}
	fmt.Printf("results: %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
