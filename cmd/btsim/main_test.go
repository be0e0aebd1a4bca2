package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs btsim's main in place of the tests when the test binary
// is started as btsim (see runBtsim).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BTSIM_ARGS"); ok {
		os.Args = append([]string{"btsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBtsim runs btsim with args in dir and returns its exit code and
// stderr.
func runBtsim(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "BTSIM_ARGS="+strings.Join(args, " "))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestFlagOfTheOtherModeIsRefused: a flag only the other mode reads
// exits 2 naming it, before any simulation (an -open -trace run writes
// no trace), while the same settings in their own mode run.
func TestFlagOfTheOtherModeIsRefused(t *testing.T) {
	open := []string{"-open", "-config", "bT8/HCC-DTS-gwb", "-requests", "4"}
	closed := []string{"-config", "bT8/HCC-DTS-gwb", "-size", "empty"}
	for _, tc := range []struct {
		args []string
		want string // "" = runs
	}{
		{append(open, "-trace", "t.txt"), "-trace not read with -open"},
		{append(open, "-app", "ligra-bfs"), "-app not read with -open"},
		{append(open, "-size", "test", "-grain", "4"), "-grain, -size not read with -open"},
		{append(closed, "-rate", "8"), "-rate not read without -open"},
		{append(closed, "-workload", "rmat-query", "-horizon", "9"), "-horizon, -workload not read without -open"},
		{append(closed, "-trace", "t.txt"), ""},
		{append(open, "-rate", "8", "-faults", "lossy-uli"), ""},
	} {
		dir := t.TempDir()
		code, stderr := runBtsim(t, dir, tc.args...)
		if tc.want == "" {
			if code != 0 {
				t.Errorf("btsim %v: exit %d, want 0\n%s", tc.args, code, stderr)
			}
			continue
		}
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("btsim %v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, tc.want)
		}
		if _, err := os.Stat(filepath.Join(dir, "t.txt")); err == nil {
			t.Errorf("btsim %v: refused, but wrote its trace", tc.args)
		}
	}
}
