package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostMeta describes where a run was taken, so two result files are
// only compared knowingly across hosts.
type hostMeta struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readHostMeta() hostMeta {
	return hostMeta{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     commit(),
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is what git says HEAD is, else "unknown" (`go run` stamps no
// VCS revision into the binary, and the acceptance driver's checkout
// is not a repository).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is this process's high-water resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibNs times a fixed integer loop (xorshift, no memory traffic) and
// returns ns per iteration, best of five short batches. It touches no
// simulator code, so a change in it between the start and the end of a
// workload is the host (a neighbour, frequency scaling), not the
// commit under test.
func calibNs() float64 {
	const iters = 20_000_000
	best := 0.0
	for b := 0; b < 5; b++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(t0).Nanoseconds()) / iters
		calibSink += x
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}
