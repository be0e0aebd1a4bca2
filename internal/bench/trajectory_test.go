package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bigtiny/internal/atomicio"
)

// The repo's own benchmark contract and A/A result files, read (never
// written) by the import tests.
const (
	specPath    = "../../BENCHMARK.json"
	resultsADir = "../../benchmark/results"
)

func loadSpec(t testing.TB) *BenchSpec {
	t.Helper()
	spec, err := LoadBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// resultRun is one run as `go run ./benchmark -out` writes it, trimmed
// to the fields an import reads plus the trace mode.
type resultRun struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Host     map[string]any     `json:"host"`
	Values   map[string]float64 `json:"values"`
}

// fakeResult builds a result file with one untraced run per workload of
// spec (metric i of workload w reads scale*(10w+i+1)) and one traced run
// the import must skip.
func fakeResult(spec *BenchSpec, commit, cpu string, nproc int, scale float64) []byte {
	host := map[string]any{"nproc": nproc, "cpu_model": cpu, "commit": commit}
	var runs []resultRun
	for w, wl := range spec.Workloads {
		vals := map[string]float64{}
		for i, m := range spec.EndToEnd {
			vals[m.Name] = scale * float64(10*w+i+1)
		}
		runs = append(runs, resultRun{Workload: wl.Name, Host: host, Values: vals})
	}
	runs = append(runs, resultRun{Workload: spec.Workloads[0].Name, Trace: 1, Host: host, Values: map[string]float64{"sim.fired": -1}})
	data, err := json.Marshal(map[string]any{"runs": runs})
	if err != nil {
		panic(err)
	}
	return data
}

func writeFile(t testing.TB, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func seriesOf(t *testing.T, e TrajectoryEntry, name string) TrajectoryBench {
	t.Helper()
	for _, b := range e.Benches {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("entry %s has no series %s", e.Commit.ID, name)
	return TrajectoryBench{}
}

const testSuite = "benchmark on Test CPU, nproc 2"

// TestAppendTrajectory grows a fresh trajectory file across two
// imported commits and checks the series accumulates in order with the
// expected shape: one series per workload and end-to-end metric, named
// <workload>/<metric>, with BENCHMARK.json's unit.
func TestAppendTrajectory(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

	r1 := writeFile(t, dir, "a.json", fakeResult(spec, "aaa", "Test CPU", 2, 1))
	if _, err := ImportResults(path, spec, []string{r1}, t0); err != nil {
		t.Fatal(err)
	}
	r2 := writeFile(t, dir, "b.json", fakeResult(spec, "bbb", "Test CPU", 2, 2))
	if _, err := ImportResults(path, spec, []string{r2}, t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	file, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	series := file.Entries[testSuite]
	if len(series) != 2 {
		t.Fatalf("expected 2 entries in %q, got %d (suites %v)", testSuite, len(series), file.Entries)
	}
	if series[0].Commit.ID != "aaa" || series[1].Commit.ID != "bbb" {
		t.Fatalf("entries out of order: %q, %q", series[0].Commit.ID, series[1].Commit.ID)
	}
	if series[0].Tool != "go" {
		t.Errorf("tool = %q, want go", series[0].Tool)
	}
	if file.LastUpdate != series[1].Date {
		t.Errorf("lastUpdate %d != newest entry date %d", file.LastUpdate, series[1].Date)
	}
	want := len(spec.Workloads) * len(spec.EndToEnd)
	for _, e := range series {
		if len(e.Benches) != want {
			t.Errorf("entry %s has %d series, want %d", e.Commit.ID, len(e.Benches), want)
		}
	}
	m := spec.EndToEnd[1]
	name := spec.Workloads[1].Name + "/" + m.Name
	if b := seriesOf(t, series[1], name); b.Value != 2*12 || b.Unit != m.Unit {
		t.Errorf("%s = %g %s, want 24 %s", name, b.Value, b.Unit, m.Unit)
	}
}

// TestAppendTrajectoryReplacesSameCommit re-imports the same commit:
// the entry must be replaced in place, not duplicated.
func TestAppendTrajectoryReplacesSameCommit(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	r1 := writeFile(t, dir, "a.json", fakeResult(spec, "aaa", "Test CPU", 2, 1))
	r2 := writeFile(t, dir, "b.json", fakeResult(spec, "aaa", "Test CPU", 2, 3))
	for i, r := range []string{r1, r1, r2} {
		if _, err := ImportResults(path, spec, []string{r}, t0.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	file, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	series := file.Entries[testSuite]
	if len(series) != 1 {
		t.Fatalf("expected 1 entry after re-importing the same commit, got %d", len(series))
	}
	if got := series[0].Benches[0].Value; got != 3 {
		t.Errorf("entry not replaced: first series = %g, want 3", got)
	}
}

// TestAppendTrajectoryRejectsGarbage refuses to clobber a file that is
// not a trajectory file.
func TestAppendTrajectoryRejectsGarbage(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	path := writeFile(t, dir, "BENCH.json", []byte("not json"))
	r := writeFile(t, dir, "a.json", fakeResult(spec, "aaa", "Test CPU", 2, 1))
	if _, err := ImportResults(path, spec, []string{r}, time.Now()); err == nil {
		t.Fatal("expected an error appending to a non-JSON file")
	}
	if data, _ := os.ReadFile(path); string(data) != "not json" {
		t.Fatalf("the rejected file was rewritten: %q", data)
	}
}

// TestAppendTrajectoryUnknownCommitNeverDedups: the benchmark stamps
// runs taken outside a checkout "unknown"; replacing on that ID would
// collapse every unattributed import into one entry and silently
// discard history.
func TestAppendTrajectoryUnknownCommitNeverDedups(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	for i, id := range []string{"unknown", "unknown", "", ""} {
		r := writeFile(t, dir, "r.json", fakeResult(spec, id, "Test CPU", 2, float64(i+1)))
		if _, err := ImportResults(path, spec, []string{r}, t0); err != nil {
			t.Fatal(err)
		}
		t0 = t0.Add(time.Hour)
	}
	file, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(file.Entries[testSuite]); got != 4 {
		t.Fatalf("expected 4 accumulated entries for unattributed commits, got %d", got)
	}
}

// TestAppendTrajectoryReadErrorPropagates: a read failure other than
// not-exist (here: the path is a directory) must be an error, not
// treated as "no file yet" — that would clobber the perf history on
// the next write.
func TestAppendTrajectoryReadErrorPropagates(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir() // the "file" is a directory: ReadFile fails with EISDIR
	r := writeFile(t, t.TempDir(), "a.json", fakeResult(spec, "aaa", "Test CPU", 2, 1))
	if _, err := ImportResults(dir, spec, []string{r}, time.Now()); err == nil {
		t.Fatal("expected a read error appending to a directory path")
	}
	if _, err := LoadTrajectory(dir); err == nil {
		t.Fatal("expected LoadTrajectory to surface the read error")
	}
}

// TestAppendTrajectoryCrashMidWrite injects a crash between writing
// the temp file and renaming it over the trajectory: the previous
// history must still be intact and fully parseable — never truncated,
// never half the new content.
func TestAppendTrajectoryCrashMidWrite(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	r1 := writeFile(t, dir, "a.json", fakeResult(spec, "aaa", "Test CPU", 2, 1))
	if _, err := ImportResults(path, spec, []string{r1}, t0); err != nil {
		t.Fatal(err)
	}

	r2 := writeFile(t, dir, "b.json", fakeResult(spec, "bbb", "Test CPU", 2, 2))
	atomicio.TestHookBeforeRename = func() { panic("simulated crash") }
	defer func() { atomicio.TestHookBeforeRename = nil }()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the injected crash to propagate")
			}
		}()
		_, _ = ImportResults(path, spec, []string{r2}, t0.Add(time.Hour))
	}()
	atomicio.TestHookBeforeRename = nil

	file, err := LoadTrajectory(path)
	if err != nil {
		t.Fatalf("trajectory corrupted by crashed append: %v", err)
	}
	series := file.Entries[testSuite]
	if len(series) != 1 || series[0].Commit.ID != "aaa" {
		t.Fatalf("crashed append altered history: %+v", series)
	}
}

// TestTrajectoryImportPoolsByHostAndCommit: runs of one host and commit
// pool across files into one entry holding the median; another host is
// another suite, another commit another entry.
func TestTrajectoryImportPoolsByHostAndCommit(t *testing.T) {
	spec := loadSpec(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	files := []string{
		writeFile(t, dir, "a.json", fakeResult(spec, "aaa", "Test CPU", 2, 1)),
		writeFile(t, dir, "b.json", fakeResult(spec, "aaa", "Test CPU", 2, 2)),
		writeFile(t, dir, "c.json", fakeResult(spec, "aaa", "Test CPU", 2, 6)),
		writeFile(t, dir, "d.json", fakeResult(spec, "aaa", "Other CPU", 64, 1)),
		writeFile(t, dir, "e.json", fakeResult(spec, "bbb", "Test CPU", 2, 1)),
	}
	added, err := ImportResults(path, spec, files, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 3 {
		t.Fatalf("%d entries added, want 3", len(added))
	}
	file, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Entries) != 2 || len(file.Entries[testSuite]) != 2 || len(file.Entries["benchmark on Other CPU, nproc 64"]) != 1 {
		t.Fatalf("suites %v, want two (2 + 1 entries)", file.Entries)
	}
	e := file.Entries[testSuite][0]
	if e.Commit.ID != "aaa" || e.Benches[0].Value != 2 {
		t.Errorf("pooled entry %s first series = %g, want the median 2", e.Commit.ID, e.Benches[0].Value)
	}
	if !strings.HasPrefix(e.Commit.Message, "12 untraced runs") {
		t.Errorf("message %q does not count the 12 pooled runs", e.Commit.Message)
	}
}

// TestTrajectoryImportABFiles imports the two committed A/A result
// files, one commit with three runs per workload each: one entry whose
// values are the medians over all six runs.
func TestTrajectoryImportABFiles(t *testing.T) {
	spec := loadSpec(t)
	path := filepath.Join(t.TempDir(), "BENCH.json")
	files := []string{filepath.Join(resultsADir, "aa-A.json"), filepath.Join(resultsADir, "aa-B.json")}
	added, err := ImportResults(path, spec, files, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 {
		t.Fatalf("%d entries, want 1", len(added))
	}
	e := added[0].Entry
	if len(e.Benches) != 20 || !strings.HasPrefix(e.Commit.ID, "b7430e7") || !strings.HasPrefix(e.Commit.Message, "24 untraced runs") {
		t.Fatalf("entry %s (%s) has %d series, want 20 from commit b7430e7", e.Commit.ID, e.Commit.Message, len(e.Benches))
	}
	if v := seriesOf(t, e, "ref-serial/wall_s").Value; math.Abs(v-7.31459436) > 1e-9 {
		t.Errorf("ref-serial/wall_s = %v, want the six-run median 7.31459436", v)
	}
}

// TestTrajectoryImportRejects: every malformed input is an error that
// leaves the trajectory byte for byte as it was.
func TestTrajectoryImportRejects(t *testing.T) {
	spec := loadSpec(t)
	good := fakeResult(spec, "aaa", "Test CPU", 2, 1)
	edit := func(f func(runs []map[string]any) []map[string]any) []byte {
		var file struct {
			Runs []map[string]any `json:"runs"`
		}
		if err := json.Unmarshal(good, &file); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(map[string]any{"runs": f(file.Runs)})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	value := func(v float64) func([]map[string]any) []map[string]any {
		return func(runs []map[string]any) []map[string]any {
			runs[0]["values"].(map[string]any)[spec.EndToEnd[0].Name] = v
			return runs
		}
	}
	cases := map[string][]byte{
		"not json":  []byte("not json"),
		"empty":     []byte("{}"),
		"truncated": good[:len(good)/2],
		"trailing":  append(append([]byte{}, good...), '}'),
		"nan":       bytes.Replace(good, []byte(":1,"), []byte(":NaN,"), 1),
		"negative":  edit(value(-1)),
		"zero":      edit(value(0)),
		"traced only": edit(func(runs []map[string]any) []map[string]any {
			return runs[len(runs)-1:]
		}),
		"unknown workload": edit(func(runs []map[string]any) []map[string]any {
			runs[0]["workload"] = "nope"
			return runs
		}),
		"missing metric": edit(func(runs []map[string]any) []map[string]any {
			delete(runs[0]["values"].(map[string]any), spec.EndToEnd[0].Name)
			return runs
		}),
		"no host": edit(func(runs []map[string]any) []map[string]any {
			delete(runs[0], "host")
			return runs
		}),
		"missing workload": edit(func(runs []map[string]any) []map[string]any {
			return runs[1:]
		}),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	if _, err := ImportResults(path, spec, []string{writeFile(t, dir, "good.json", good)}, time.Now()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range cases {
		r := writeFile(t, dir, "bad.json", data)
		_, err := ImportResults(path, spec, []string{r}, time.Now())
		after, _ := os.ReadFile(path)
		switch {
		case err == nil:
			t.Errorf("%s: imported without error", name)
			writeFile(t, dir, "BENCH.json", before)
		case !bytes.Equal(after, before):
			t.Fatalf("%s: a rejected import rewrote the trajectory", name)
		}
	}
	if _, err := ImportResults(path, spec, []string{filepath.Join(dir, "missing.json")}, time.Now()); err == nil {
		t.Error("a missing result file imported without error")
	}
}

// FuzzTrajectoryImport feeds arbitrary bytes to the import as a result
// file. It must never panic; a rejected file leaves the trajectory
// byte for byte as it was; an accepted one adds entries of exactly one
// series per workload and end-to-end metric.
func FuzzTrajectoryImport(f *testing.F) {
	spec := loadSpec(f)
	real, err := os.ReadFile(filepath.Join(resultsADir, "aa-A.json"))
	if err != nil {
		f.Fatal(err)
	}
	var file struct {
		Runs []map[string]any `json:"runs"`
	}
	if err := json.Unmarshal(real, &file); err != nil {
		f.Fatal(err)
	}
	var trimmed []map[string]any
	for _, r := range file.Runs {
		if r["seed"] == 1.0 {
			delete(r, "timings")
			trimmed = append(trimmed, r)
		}
	}
	seed, err := json.Marshal(map[string]any{"runs": trimmed})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := parseResults(spec, seed); err != nil {
		f.Fatalf("the trimmed real result file is rejected: %v", err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add(seed[:len(seed)/3])
	f.Add(bytes.Replace(fakeResult(spec, "aaa", "Test CPU", 2, 1), []byte(":1,"), []byte(":NaN,"), 1))
	f.Add(fakeResult(spec, "aaa", "Test CPU", 2, -1))

	dir := f.TempDir()
	history := filepath.Join(dir, "BENCH.json")
	if _, err := ImportResults(history, spec, []string{writeFile(f, dir, "base.json", fakeResult(spec, "base", "Test CPU", 2, 1))}, time.Now()); err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(history)
	if err != nil {
		f.Fatal(err)
	}
	want := len(spec.Workloads) * len(spec.EndToEnd)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := writeFile(t, dir, "BENCH.json", base)
		r := writeFile(t, dir, "r.json", data)
		added, err := ImportResults(path, spec, []string{r}, time.Now())
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, base) {
				t.Fatalf("rejected import (%v) rewrote the trajectory", err)
			}
			return
		}
		if len(added) == 0 {
			t.Fatal("accepted import added no entry")
		}
		for _, a := range added {
			if len(a.Entry.Benches) != want {
				t.Fatalf("entry %s in %q has %d series, want %d", a.Entry.Commit.ID, a.Suite, len(a.Entry.Benches), want)
			}
		}
		if _, err := LoadTrajectory(path); err != nil {
			t.Fatalf("accepted import left an unreadable trajectory: %v", err)
		}
	})
}
