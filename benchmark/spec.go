package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// outDir receives the Chrome traces, the scratch directories of a run
// and, by default, the result files. It is ignored by git.
const outDir = "benchmark/out"

// specFile is the benchmark's contract at the root of the repo. The
// program reads its metric names, units and bounds from there, so the
// file and the code cannot drift apart.
const specFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpecFrom(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the repo: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readSpec() (*benchSpec, error) { return readSpecFrom(specFile) }

func (s *benchSpec) units(defs []metricDef) map[string]string {
	u := make(map[string]string, len(defs))
	for _, d := range defs {
		u[d.Name] = d.Unit
	}
	return u
}

// resultFile is what -out writes and -compare reads: every run made so
// far, one entry per (workload, seed, trace mode).
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds one run to the result file, creating it if needed.
func appendResult(path string, r runResult) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
