package apps

import (
	"testing"

	"bigtiny/internal/cache"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// testMachine builds a small 8-core machine for app tests.
func testMachine(t testing.TB, proto cache.Protocol, dts bool) *machine.Machine {
	t.Helper()
	base, err := machine.Lookup("bT/MESI")
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Name = "apps-test"
	cfg.NumBig, cfg.NumTiny = 1, 7
	cfg.Rows, cfg.Cols = 2, 4
	cfg.NumBanks = 4
	cfg.TinyProto = proto
	cfg.DTS = dts
	cfg.Deadline = 600_000_000
	return machine.New(cfg)
}

func runApp(t *testing.T, a *App, m *machine.Machine, v wsrt.Variant, serial bool) {
	t.Helper()
	rt := wsrt.New(m, v)
	inst := a.Setup(rt, Test, 0)
	root := inst.Root
	if serial {
		root = inst.SerialRoot
	}
	if err := rt.Run(root); err != nil {
		t.Fatalf("%s: %v (stats %v)", a.Name, err, rt.Stats)
	}
	read := func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) }
	if err := inst.Verify(read); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("%d apps registered, want 13", len(all))
	}
	wantOrder := []string{
		"cilk5-cs", "cilk5-lu", "cilk5-mm", "cilk5-mt", "cilk5-nq",
		"ligra-bc", "ligra-bf", "ligra-bfs", "ligra-bfsbv", "ligra-cc",
		"ligra-mis", "ligra-radii", "ligra-tc",
	}
	for i, a := range all {
		if a.Name != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, a.Name, wantOrder[i])
		}
		if a.Method != "ss" && a.Method != "pf" {
			t.Errorf("%s: bad method %q", a.Name, a.Method)
		}
	}
	// Paper Table III parallelization methods.
	methods := map[string]string{
		"cilk5-cs": "ss", "cilk5-lu": "ss", "cilk5-mm": "ss", "cilk5-mt": "ss",
		"cilk5-nq": "pf", "ligra-bc": "pf", "ligra-bf": "pf", "ligra-bfs": "pf",
		"ligra-bfsbv": "pf", "ligra-cc": "pf", "ligra-mis": "pf", "ligra-radii": "pf",
		"ligra-tc": "pf",
	}
	for _, a := range all {
		if a.Method != methods[a.Name] {
			t.Errorf("%s: method %s, want %s (Table III)", a.Name, a.Method, methods[a.Name])
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted unknown app")
	}
}

// Every app must verify on the hardware-coherent baseline.
func TestAppsOnMESI(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			runApp(t, a, testMachine(t, cache.MESI, false), wsrt.HW, false)
		})
	}
}

// Every app must verify on HCC with the most demanding protocol
// (GPU-WB: flushes required for correctness).
func TestAppsOnHCCGWB(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			runApp(t, a, testMachine(t, cache.GPUWB, false), wsrt.HCC, false)
		})
	}
}

// Every app must verify with direct task stealing.
func TestAppsOnDTSGWB(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			runApp(t, a, testMachine(t, cache.GPUWB, true), wsrt.DTS, false)
		})
	}
}

// DeNovo and GPU-WT spot checks (one ss app + one pf app each).
func TestAppsOnOtherProtocols(t *testing.T) {
	names := []string{"cilk5-cs", "ligra-bfs"}
	for _, proto := range []cache.Protocol{cache.DeNovo, cache.GPUWT} {
		for _, name := range names {
			a, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(proto.String()+"/"+name, func(t *testing.T) {
				runApp(t, a, testMachine(t, proto, false), wsrt.HCC, false)
				runApp(t, a, testMachine(t, proto, true), wsrt.DTS, false)
			})
		}
	}
}

// Serial variants must verify on the single-tiny-core machine.
func TestSerialVariants(t *testing.T) {
	io1, err := machine.Lookup("IOx1")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			cfg := io1
			cfg.Deadline = 3_000_000_000
			m := machine.New(cfg)
			runApp(t, a, m, wsrt.HW, true)
		})
	}
}

// TestZeroGrainIsDefaultGrain: Setup resolves a grain <= 0 to the app's
// DefaultGrain, so both build the same task DAG.
func TestZeroGrainIsDefaultGrain(t *testing.T) {
	for _, a := range All() {
		view := func(grain int) cilkview.Report {
			return cilkview.Analyze(func(rt *wsrt.RT) wsrt.Body { return a.Setup(rt, Test, grain).Root })
		}
		if zero, def := view(0), view(a.DefaultGrain); zero != def {
			t.Errorf("%s: grain 0 analyses to %+v, DefaultGrain %d to %+v", a.Name, zero, a.DefaultGrain, def)
		}
	}
}
