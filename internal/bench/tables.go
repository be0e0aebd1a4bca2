package bench

import (
	"context"
	"fmt"
	"io"

	"bigtiny/internal/apps"
	"bigtiny/internal/cilkview"
	"bigtiny/internal/energy"
	"bigtiny/internal/stats"
)

// sizeUp maps a suite size to the Table V (weak-scaling) input size.
func sizeUp(sz apps.Size) apps.Size {
	if sz == apps.Test {
		return apps.Test
	}
	return apps.Big
}

// Table3 regenerates paper Table III: per-application Cilkview
// characterization (Work/Span/Para/IPT), speedups over the Serial-IO
// baseline for O3x{1,4,8} and big.TINY/MESI, and speedups over
// big.TINY/MESI for the three HCC and three HCC-DTS configurations.
func (s *Suite) Table3(w io.Writer, appNames []string) error {
	fmt.Fprintf(w, "Table III: application characterization and speedups (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s %-6s %9s %9s %6s %7s | %6s %6s %6s %7s | %5s %5s %5s | %5s %5s %5s\n",
		"Name", "PM", "Work", "Span", "Para", "IPT",
		"O3x1", "O3x4", "O3x8", "bT/MESI",
		"dnv", "gwt", "gwb", "Ddnv", "Dgwt", "Dgwb")

	type speedups struct {
		vsSerial map[string]float64
		vsMESI   map[string]float64
	}
	perApp := map[string]speedups{}

	serialCfgs := []string{"O3x1", "O3x4", "O3x8", "bT/MESI"}
	mesiCfgs := append(append([]string{}, HCCConfigs...), DTSConfigs...)

	for _, app := range appNames {
		view, err := s.View(app)
		if err != nil {
			return err
		}
		serial, err := s.Run("IOx1", app)
		if err != nil {
			return err
		}
		sp := speedups{vsSerial: map[string]float64{}, vsMESI: map[string]float64{}}
		for _, cfg := range serialCfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			sp.vsSerial[cfg] = stats.Speedup(serial, r)
		}
		// Read after the O3x columns: this read order is Table3Work's
		// list order, which TestTable3WorkOrder pins.
		mesi, err := s.Run("bT/MESI", app)
		if err != nil {
			return err
		}
		for _, cfg := range mesiCfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			sp.vsMESI[cfg] = stats.Speedup(mesi, r)
		}
		perApp[app] = sp

		a, _ := apps.ByName(app)
		fmt.Fprintf(w, "%-12s %-6s %9d %9d %6.1f %7.1f | %6.2f %6.2f %6.2f %7.2f | %5.2f %5.2f %5.2f | %5.2f %5.2f %5.2f\n",
			app, a.Method, view.Work, view.Span, view.Parallelism(), view.IPT(),
			sp.vsSerial["O3x1"], sp.vsSerial["O3x4"], sp.vsSerial["O3x8"], sp.vsSerial["bT/MESI"],
			sp.vsMESI["bT/HCC-dnv"], sp.vsMESI["bT/HCC-gwt"], sp.vsMESI["bT/HCC-gwb"],
			sp.vsMESI["bT/HCC-DTS-dnv"], sp.vsMESI["bT/HCC-DTS-gwt"], sp.vsMESI["bT/HCC-DTS-gwb"])
	}

	// Geomean row.
	gm := func(key string, serial bool) float64 {
		var vs []float64
		for _, app := range appNames {
			if serial {
				vs = append(vs, perApp[app].vsSerial[key])
			} else {
				vs = append(vs, perApp[app].vsMESI[key])
			}
		}
		return geomean(vs)
	}
	fmt.Fprintf(w, "%-12s %-6s %9s %9s %6s %7s | %6.2f %6.2f %6.2f %7.2f | %5.2f %5.2f %5.2f | %5.2f %5.2f %5.2f\n",
		"geomean", "", "", "", "", "",
		gm("O3x1", true), gm("O3x4", true), gm("O3x8", true), gm("bT/MESI", true),
		gm("bT/HCC-dnv", false), gm("bT/HCC-gwt", false), gm("bT/HCC-gwb", false),
		gm("bT/HCC-DTS-dnv", false), gm("bT/HCC-DTS-gwt", false), gm("bT/HCC-DTS-gwb", false))
	return nil
}

// Table4 regenerates paper Table IV: the DTS-vs-HCC reduction in cache
// line invalidations (InvDec) and flushes (FlsDec, GPU-WB), and the
// relative increase in tiny-core L1D hit rate (HitRateInc), per
// protocol.
func (s *Suite) Table4(w io.Writer, appNames []string) error {
	fmt.Fprintf(w, "Table IV: DTS vs HCC cache operation reductions (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s | %8s %8s %8s | %8s | %8s %8s %8s\n",
		"App", "InvDec%", "InvDec%", "InvDec%", "FlsDec%", "HitInc%", "HitInc%", "HitInc%")
	fmt.Fprintf(w, "%-12s | %8s %8s %8s | %8s | %8s %8s %8s\n",
		"", "dnv", "gwt", "gwb", "gwb", "dnv", "gwt", "gwb")
	protos := []string{"dnv", "gwt", "gwb"}
	for _, app := range appNames {
		invDec := map[string]float64{}
		hitInc := map[string]float64{}
		var flsDec float64
		for _, p := range protos {
			hcc, err := s.Run("bT/HCC-"+p, app)
			if err != nil {
				return err
			}
			dts, err := s.Run("bT/HCC-DTS-"+p, app)
			if err != nil {
				return err
			}
			invDec[p] = stats.PctDecrease(hcc.L1Tiny.InvLines, dts.L1Tiny.InvLines)
			if hr := hcc.TinyHitRate(); hr > 0 {
				hitInc[p] = 100 * (dts.TinyHitRate() - hr) / hr
			}
			if p == "gwb" {
				flsDec = stats.PctDecrease(hcc.L1Tiny.FlushLines, dts.L1Tiny.FlushLines)
			}
		}
		fmt.Fprintf(w, "%-12s | %8.2f %8.2f %8.2f | %8.2f | %8.2f %8.2f %8.2f\n",
			app, invDec["dnv"], invDec["gwt"], invDec["gwb"], flsDec,
			hitInc["dnv"], hitInc["gwt"], hitInc["gwb"])
	}
	return nil
}

// table5Configs are Table V's columns: the O3x1 baseline, then the
// 256-core MESI, HCC-gwb and HCC-DTS-gwb machines.
var table5Configs = []string{"O3x1", "bT256/MESI", "bT256/HCC-gwb", "bT256/HCC-DTS-gwb"}

// Table5 regenerates paper Table V: the 256-core weak-scaling study on
// five kernels with larger inputs: big.TINY/MESI speedup over O3x1, and
// HCC-gwb / HCC-DTS-gwb speedups over big.TINY/MESI.
func (s *Suite) Table5(w io.Writer) error {
	size := sizeUp(s.Size)
	fmt.Fprintf(w, "Table V: 256-core big.TINY system, larger inputs (size=%s)\n", size)
	fmt.Fprintf(w, "%-12s | %10s | %12s %12s\n", "App", "b.T/MESI", "HCC-gwb", "HCC-DTS-gwb")
	fmt.Fprintf(w, "%-12s | %10s | %12s %12s\n", "", "(vs O3x1)", "(vs b.T/MESI)", "(vs b.T/MESI)")
	for _, app := range Table5Apps {
		var r [4]*stats.Run // O3x1, MESI, HCC-gwb, HCC-DTS-gwb
		for i, cfg := range table5Configs {
			var err error
			r[i], err = memo[*stats.Run](context.Background(), s, Work{Cfg: cfg, App: app, Size: size, Grain: s.Grain})
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%-12s | %10.1f | %12.2f %12.2f\n",
			app, stats.Speedup(r[0], r[1]), stats.Speedup(r[1], r[2]), stats.Speedup(r[1], r[3]))
	}
	return nil
}

// Fig4Grains is the granularity sweep Fig4 runs when given no explicit
// grain list.
var Fig4Grains = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig4 regenerates paper Figure 4: ligra-tc speedup over the serial
// baseline and Cilkview logical parallelism as a function of task
// granularity, on a 64-tiny-core system.
func (s *Suite) Fig4(w io.Writer, grains []int) error {
	if len(grains) == 0 {
		grains = Fig4Grains
	}
	fmt.Fprintf(w, "Figure 4: ligra-tc on 64 tiny cores vs task granularity (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s %10s %14s\n", "Granularity", "Speedup", "Parallelism")
	serial, err := s.Run("IOx1", "ligra-tc")
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, g := range grains {
		r, err := memo[*stats.Run](ctx, s, Work{Cfg: "tiny64", App: "ligra-tc", Size: s.Size, Grain: g})
		if err != nil {
			return err
		}
		view, err := memo[cilkview.Report](ctx, s, Work{App: "ligra-tc", Size: s.Size, Grain: g, View: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12d %10.2f %14.1f\n", g, stats.Speedup(serial, r), view.Parallelism())
	}
	return nil
}

// ViewReport prints each app's Cilkview analysis (§V-D) at the suite's
// size and grain: the effective grain, work, span, logical
// parallelism, instructions per task and task count — the numbers
// Table III's first columns and Figure 4's parallelism series draw on.
func (s *Suite) ViewReport(w io.Writer, appNames []string) error {
	fmt.Fprintf(w, "Cilkview: work and span per app (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s %6s %12s %12s %8s %10s %8s\n",
		"App", "Grain", "Work", "Span", "Para", "IPT", "Tasks")
	for _, app := range appNames {
		a, err := apps.ByName(app)
		if err != nil {
			return err
		}
		v, err := s.View(app)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %6d %12d %12d %8.1f %10.1f %8d\n",
			app, grainFor(a, s.Grain), v.Work, v.Span, v.Parallelism(), v.IPT(), v.Tasks)
	}
	return nil
}

// Fig5 regenerates paper Figure 5: per-app speedup of each HCC (+DTS)
// configuration over big.TINY/MESI.
func (s *Suite) Fig5(w io.Writer, appNames []string) error {
	cfgs := append(append([]string{}, HCCConfigs...), DTSConfigs...)
	fmt.Fprintf(w, "Figure 5: speedup over big.TINY/MESI (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s", "App")
	for _, c := range cfgs {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, app := range appNames {
		mesi, err := s.Run("bT/MESI", app)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s", app)
		for _, cfg := range cfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14.2f", stats.Speedup(mesi, r))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig6 regenerates paper Figure 6: tiny-core L1 data cache hit rate per
// app and configuration.
func (s *Suite) Fig6(w io.Writer, appNames []string) error {
	cfgs := append([]string{"bT/MESI"}, append(append([]string{}, HCCConfigs...), DTSConfigs...)...)
	fmt.Fprintf(w, "Figure 6: L1D hit rate (tiny cores) (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s", "App")
	for _, c := range cfgs {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, app := range appNames {
		fmt.Fprintf(w, "%-12s", app)
		for _, cfg := range cfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14.3f", r.TinyHitRate())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig7 regenerates paper Figure 7: aggregated tiny-core execution time
// breakdown, normalized to big.TINY/MESI.
func (s *Suite) Fig7(w io.Writer, appNames []string) error {
	cfgs := append([]string{"bT/MESI"}, append(append([]string{}, HCCConfigs...), DTSConfigs...)...)
	fmt.Fprintf(w, "Figure 7: tiny-core execution time breakdown, normalized to bT/MESI (size=%s)\n", s.Size)
	for _, app := range appNames {
		mesi, err := s.Run("bT/MESI", app)
		if err != nil {
			return err
		}
		base := float64(mesi.TinyTotalCycles())
		fmt.Fprintf(w, "%s:\n", app)
		for _, cfg := range cfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-16s total=%5.2f  %s\n",
				cfg, float64(r.TinyTotalCycles())/base, stats.BreakdownString(r.TinyBreakdown))
		}
	}
	return nil
}

// Fig8 regenerates paper Figure 8: total on-chip network traffic by
// message category, normalized to big.TINY/MESI.
func (s *Suite) Fig8(w io.Writer, appNames []string) error {
	cfgs := append([]string{"bT/MESI"}, append(append([]string{}, HCCConfigs...), DTSConfigs...)...)
	fmt.Fprintf(w, "Figure 8: on-chip network traffic (bytes) normalized to bT/MESI (size=%s)\n", s.Size)
	for _, app := range appNames {
		mesi, err := s.Run("bT/MESI", app)
		if err != nil {
			return err
		}
		base := float64(mesi.Traffic.TotalBytes())
		fmt.Fprintf(w, "%s:\n", app)
		for _, cfg := range cfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-16s total=%5.2f  %s\n",
				cfg, float64(r.Traffic.TotalBytes())/base, stats.TrafficString(&r.Traffic))
		}
	}
	return nil
}

// ULIReport regenerates the paper's §VI-C DTS overhead numbers: ULI
// network utilization, average round-trip latency, and the fraction of
// execution time spent in DTS.
func (s *Suite) ULIReport(w io.Writer, appNames []string) error {
	fmt.Fprintf(w, "ULI/DTS overhead (paper §VI-C) (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s %-16s %10s %10s %10s %10s %8s\n",
		"App", "Config", "Reqs", "Acks", "Nacks", "AvgLat", "MaxUtil")
	for _, app := range appNames {
		for _, cfg := range DTSConfigs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			if r.ULI == nil {
				continue
			}
			fmt.Fprintf(w, "%-12s %-16s %10d %10d %10d %10.1f %7.2f%%\n",
				app, cfg, r.ULI.Reqs, r.ULI.Acks, r.ULI.Nacks,
				r.ULIAvgLatency, 100*r.ULIMeshMaxUtil)
		}
	}
	return nil
}

// EnergyReport compares the energy proxy across configurations (the
// paper's "similar energy efficiency" claim).
func (s *Suite) EnergyReport(w io.Writer, appNames []string) error {
	cfgs := []string{"O3x8", "bT/MESI", "bT/HCC-gwb", "bT/HCC-DTS-gwb"}
	model := energy.DefaultModel()
	fmt.Fprintf(w, "Energy proxy (uJ, lower is better; normalized in parens to bT/MESI) (size=%s)\n", s.Size)
	fmt.Fprintf(w, "%-12s", "App")
	for _, c := range cfgs {
		fmt.Fprintf(w, " %22s", c)
	}
	fmt.Fprintln(w)
	var norm = map[string][]float64{}
	for _, app := range appNames {
		mesi, err := s.Run("bT/MESI", app)
		if err != nil {
			return err
		}
		base := model.Estimate(mesi)
		fmt.Fprintf(w, "%-12s", app)
		for _, cfg := range cfgs {
			r, err := s.Run(cfg, app)
			if err != nil {
				return err
			}
			e := model.Estimate(r)
			fmt.Fprintf(w, " %14.1f (%4.2f)", e, e/base)
			norm[cfg] = append(norm[cfg], e/base)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "geomean")
	for _, cfg := range cfgs {
		fmt.Fprintf(w, " %14s (%4.2f)", "", geomean(norm[cfg]))
	}
	fmt.Fprintln(w)
	return nil
}
