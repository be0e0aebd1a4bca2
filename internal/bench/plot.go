package bench

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"bigtiny/internal/atomicio"
)

// This file renders the BENCH.json trajectory as a static HTML page
// (`paperbench bench-plot`, committed as docs/bench.html): one inline
// SVG line chart per series, grouped by suite, with no scripts and no
// external assets, so the repo's perf history is browsable anywhere a
// file renders. Output is deterministic for a given trajectory —
// suites sort lexically, series keep first-appearance order — so
// regenerating the page produces a meaningful diff only when the data
// changed.

// plot geometry, in SVG user units (pixels).
const (
	plotW    = 640
	plotH    = 200
	plotPadL = 64 // room for the y-axis value labels
	plotPadR = 16
	plotPadT = 12
	plotPadB = 24
)

// seriesPoint is one plotted measurement.
type seriesPoint struct {
	Value  float64
	Commit string // short id, for the hover tooltip
	Date   int64  // milliseconds since epoch
}

// collectSeries flattens a suite's entries into per-series point lists,
// returning the series names in order of first appearance (entry order,
// then bench order within an entry) — the order the history grew in.
func collectSeries(entries []TrajectoryEntry) ([]string, map[string][]seriesPoint) {
	var order []string
	points := map[string][]seriesPoint{}
	for _, e := range entries {
		commit := e.Commit.ID
		if len(commit) > 12 {
			commit = commit[:12]
		}
		for _, b := range e.Benches {
			if _, ok := points[b.Name]; !ok {
				order = append(order, b.Name)
			}
			points[b.Name] = append(points[b.Name], seriesPoint{Value: b.Value, Commit: commit, Date: e.Date})
		}
	}
	return order, points
}

// seriesUnit finds the unit a series was last recorded with.
func seriesUnit(entries []TrajectoryEntry, name string) string {
	unit := ""
	for _, e := range entries {
		for _, b := range e.Benches {
			if b.Name == name {
				unit = b.Unit
			}
		}
	}
	return unit
}

// fmtValue renders an axis/point label compactly.
func fmtValue(v float64) string {
	switch {
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// renderSeriesSVG draws one series as an SVG line chart. A single-point
// series still renders (a dot and its value); the y-range pads 5% so a
// flat series does not sit on the frame.
func renderSeriesSVG(w io.Writer, pts []seriesPoint, unit string) {
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		lo = math.Min(lo, p.Value)
		hi = math.Max(hi, p.Value)
	}
	span := hi - lo
	if span == 0 {
		span = math.Abs(hi)
		if span == 0 {
			span = 1
		}
	}
	lo -= 0.05 * span
	hi += 0.05 * span

	x := func(i int) float64 {
		if len(pts) == 1 {
			return (plotPadL + plotW - plotPadR) / 2
		}
		return plotPadL + float64(i)*float64(plotW-plotPadL-plotPadR)/float64(len(pts)-1)
	}
	y := func(v float64) float64 {
		return plotPadT + (hi-v)/(hi-lo)*float64(plotH-plotPadT-plotPadB)
	}

	fmt.Fprintf(w, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`+"\n", plotW, plotH, plotW, plotH)
	fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#ccc"/>`+"\n",
		plotPadL, plotPadT, plotW-plotPadL-plotPadR, plotH-plotPadT-plotPadB)
	// Min/max labels on the y axis, in data units.
	fmt.Fprintf(w, `<text x="%d" y="%.1f" font-size="11" text-anchor="end" fill="#555">%s</text>`+"\n",
		plotPadL-6, y(hi)+4, html.EscapeString(fmtValue(hi)))
	fmt.Fprintf(w, `<text x="%d" y="%.1f" font-size="11" text-anchor="end" fill="#555">%s</text>`+"\n",
		plotPadL-6, y(lo)+4, html.EscapeString(fmtValue(lo)))
	if len(pts) > 1 {
		var b strings.Builder
		for i, p := range pts {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.1f,%.1f", x(i), y(p.Value))
		}
		fmt.Fprintf(w, `<polyline points="%s" fill="none" stroke="#2962a8" stroke-width="1.5"/>`+"\n", b.String())
	}
	for i, p := range pts {
		fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="3" fill="#2962a8"><title>%s</title></circle>`+"\n",
			x(i), y(p.Value), html.EscapeString(fmt.Sprintf("%s %s @ %s", fmtValue(p.Value), unit, p.Commit)))
	}
	last := pts[len(pts)-1]
	fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="11" fill="#2962a8">%s</text>`+"\n",
		math.Min(x(len(pts)-1)+6, plotW-plotPadR-40), y(last.Value)-6, html.EscapeString(fmtValue(last.Value)))
	fmt.Fprint(w, "</svg>\n")
}

// RenderTrajectoryHTML writes the whole trajectory as one
// self-contained HTML page: a section per suite (sorted), a chart per
// series (first-appearance order), latest value and commit beside each
// title. source names the trajectory file in the page header.
func RenderTrajectoryHTML(w io.Writer, traj *TrajectoryFile, source string) error {
	fmt.Fprint(w, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprint(w, "<title>benchmark trajectory</title>\n")
	fmt.Fprint(w, "<style>\nbody{font-family:system-ui,sans-serif;margin:2em auto;max-width:720px;color:#222}\n"+
		"h2{border-bottom:1px solid #ddd;padding-bottom:.3em}\n"+
		"h3{margin-bottom:.2em}\n.meta{color:#666;font-size:.9em}\n</style>\n</head>\n<body>\n")
	fmt.Fprintf(w, "<h1>Benchmark trajectory</h1>\n<p class=\"meta\">rendered from %s", html.EscapeString(source))
	if traj.LastUpdate > 0 {
		fmt.Fprintf(w, ", last update %s", time.UnixMilli(traj.LastUpdate).UTC().Format("2006-01-02"))
	}
	fmt.Fprint(w, "</p>\n")

	suites := make([]string, 0, len(traj.Entries))
	for name := range traj.Entries {
		suites = append(suites, name)
	}
	sort.Strings(suites)
	total := 0
	for _, suite := range suites {
		entries := traj.Entries[suite]
		if len(entries) == 0 {
			continue
		}
		fmt.Fprintf(w, "<h2>%s</h2>\n<p class=\"meta\">%d entries</p>\n", html.EscapeString(suite), len(entries))
		order, points := collectSeries(entries)
		for _, name := range order {
			pts := points[name]
			unit := seriesUnit(entries, name)
			last := pts[len(pts)-1]
			fmt.Fprintf(w, "<h3>%s</h3>\n<p class=\"meta\">latest %s %s (%s), %d points</p>\n",
				html.EscapeString(name), html.EscapeString(fmtValue(last.Value)),
				html.EscapeString(unit), html.EscapeString(last.Commit), len(pts))
			renderSeriesSVG(w, pts, unit)
			total++
		}
	}
	if total == 0 {
		fmt.Fprint(w, "<p>No trajectory entries yet — run <code>paperbench bench</code> first.</p>\n")
	}
	fmt.Fprint(w, "</body>\n</html>\n")
	return nil
}

// WriteTrajectoryHTML renders the page to path atomically (the
// committed docs artifact must never be left truncated).
func WriteTrajectoryHTML(path string, traj *TrajectoryFile, source string) error {
	var b strings.Builder
	if err := RenderTrajectoryHTML(&b, traj, source); err != nil {
		return err
	}
	return atomicio.WriteFile(path, []byte(b.String()), 0o644)
}
