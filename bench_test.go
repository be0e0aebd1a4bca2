// Benchmarks that regenerate each table and figure of the paper's
// evaluation, one testing.B benchmark per artifact. They run at Test
// input scale so `go test -bench=.` finishes quickly; cmd/paperbench
// produces the evaluation-scale versions (-size ref).
//
// Each benchmark reports sim_cycles/op: the total simulated cycles
// consumed regenerating the artifact (a determinism canary as much as
// a performance number — it must be identical across runs).
package bigtiny_test

import (
	"io"
	"testing"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/cache"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// benchApps is a representative subset (one ss + two pf kernels) used
// by the per-figure benchmarks to keep -bench=. runtimes reasonable;
// the Table III benchmark covers all 13.
var benchApps = []string{"cilk5-cs", "ligra-bfs", "ligra-tc"}

func runArtifact(b *testing.B, f func(s *bench.Suite) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(apps.Test)
		if err := f(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table III (all 13 apps, 11 configs).
func BenchmarkTable3(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Table3(io.Discard, bench.AppNames())
	})
}

// BenchmarkTable4 regenerates Table IV (DTS cache-op reductions).
func BenchmarkTable4(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Table4(io.Discard, benchApps)
	})
}

// BenchmarkTable5 regenerates Table V (256-core weak scaling).
func BenchmarkTable5(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Table5(io.Discard)
	})
}

// BenchmarkFig4 regenerates Figure 4 (granularity sweep on ligra-tc).
func BenchmarkFig4(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Fig4(io.Discard, []int{4, 16, 64})
	})
}

// BenchmarkFig5 regenerates Figure 5 (speedup over big.TINY/MESI).
func BenchmarkFig5(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Fig5(io.Discard, benchApps)
	})
}

// BenchmarkFig6 regenerates Figure 6 (L1D hit rates).
func BenchmarkFig6(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Fig6(io.Discard, benchApps)
	})
}

// BenchmarkFig7 regenerates Figure 7 (execution-time breakdown).
func BenchmarkFig7(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Fig7(io.Discard, benchApps)
	})
}

// BenchmarkFig8 regenerates Figure 8 (network traffic breakdown).
func BenchmarkFig8(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.Fig8(io.Discard, benchApps)
	})
}

// BenchmarkULIReport regenerates the §VI-C ULI overhead report.
func BenchmarkULIReport(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.ULIReport(io.Discard, benchApps)
	})
}

// BenchmarkEnergyReport regenerates the energy-efficiency comparison.
func BenchmarkEnergyReport(b *testing.B) {
	runArtifact(b, func(s *bench.Suite) error {
		return s.EnergyReport(io.Discard, benchApps)
	})
}

// BenchmarkEndToEndCilkCS is the PR 4 host-throughput canary: one full
// cilk5-cs simulation on the 64-core DTS machine, reporting simulated
// cycles, kernel events, and the fast-path wait count per op alongside
// the usual wall-clock and allocs. sim_cycles/op and events/op are
// determinism canaries; ns/op and allocs/op are the host cost this PR
// drives down.
func BenchmarkEndToEndCilkCS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app, err := apps.ByName("cilk5-cs")
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := machine.Lookup("bT/HCC-DTS-gwb")
		if err != nil {
			b.Fatal(err)
		}
		m := machine.New(cfg)
		rt := wsrt.New(m, wsrt.AutoVariant(m))
		rt.Grain = app.DefaultGrain
		inst := app.Setup(rt, apps.Test, 0)
		if err := rt.Run(inst.Root); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Kernel.Now()), "sim_cycles/op")
		b.ReportMetric(float64(m.Kernel.Fired()), "events/op")
		b.ReportMetric(float64(m.Kernel.FastWaits()), "fastwaits/op")
	}
}

// --- runtime primitive microbenchmarks (ablation-style) ---

// benchSpawnWait measures the end-to-end cost of a fork-join workload
// on one runtime variant: wall-clock is host time, sim_cycles/op the
// simulated execution time.
func benchSpawnWait(b *testing.B, tinyProto cache.Protocol, dts bool, variant wsrt.Variant) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		base, err := machine.Lookup("bT/MESI")
		if err != nil {
			b.Fatal(err)
		}
		cfg := base
		cfg.Name = "bench"
		cfg.NumBig, cfg.NumTiny = 1, 7
		cfg.Rows, cfg.Cols = 2, 4
		cfg.NumBanks = 4
		cfg.DTS = dts
		cfg.TinyProto = tinyProto
		m := machine.New(cfg)
		rt := wsrt.New(m, variant)
		fid := rt.RegisterFunc("bench", 512)
		n := 512
		arr := m.Mem.AllocWords(n)
		if err := rt.Run(func(c *wsrt.Ctx) {
			c.ParallelFor(fid, 0, n, 16, func(cc *wsrt.Ctx, j int) {
				cc.Compute(50)
				cc.Store(arr+mem.Addr(j*8), uint64(j))
			})
		}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Kernel.Now()), "sim_cycles/op")
	}
}

// BenchmarkRuntimeHWOnMESI measures the Fig. 3(a) engine.
func BenchmarkRuntimeHWOnMESI(b *testing.B) { benchSpawnWait(b, cache.MESI, false, wsrt.HW) }

// BenchmarkRuntimeHCCOnGWB measures the Fig. 3(b) engine.
func BenchmarkRuntimeHCCOnGWB(b *testing.B) { benchSpawnWait(b, cache.GPUWB, false, wsrt.HCC) }

// BenchmarkRuntimeDTSOnGWB measures the Fig. 3(c) engine.
func BenchmarkRuntimeDTSOnGWB(b *testing.B) { benchSpawnWait(b, cache.GPUWB, true, wsrt.DTS) }
