package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"bigtiny/internal/apps"
	"bigtiny/internal/openload"
)

// Work names one cell of the suite's memo: a simulation of App on Cfg,
// (View=true) a Cilkview analysis of App, or (Open set) an open-system
// run on Cfg. Size and Grain are absolute — the renderers fill them in
// from the suite as they read the cell (see Cells) — so a Work item and
// the suite's settings fully determine its result.
type Work struct {
	Cfg   string // machine configuration; unused when View is set
	App   string
	Size  apps.Size
	Grain int
	View  bool // Cilkview analysis instead of a simulation

	// Open, when set, makes this item an open-system cell (OpenRun of
	// the spec on Cfg under OpenScenario/OpenFaultSeed) instead of a
	// closed-loop simulation; App/Size/Grain/View are unused.
	Open          *openload.Spec
	OpenScenario  string
	OpenFaultSeed uint64
}

// name names the cell in errors and interrupt reasons.
func (w Work) name() string {
	switch {
	case w.Open != nil:
		return fmt.Sprintf("open %s on %s", w.Open.Workload, w.Cfg)
	case w.View:
		return "view " + w.App
	}
	return w.App + " on " + w.Cfg
}

// Prewarm executes every work item, fanning them out over a bounded
// pool of jobs workers (jobs <= 0 means runtime.NumCPU()). Duplicate
// items are collapsed, and the memo dedups any remaining overlap, so
// each distinct cell runs exactly once. Results land in the memo the
// serial render paths read; a render pass after Prewarm therefore does
// no simulation work and emits output in its usual fixed order.
//
// Prewarm returns the first error in worklist order, but warms every
// other item regardless; the render pass will surface the same error
// with its usual per-target context.
func (s *Suite) Prewarm(work []Work, jobs int) error {
	seen := make(map[string]bool, len(work))
	queue := make([]Work, 0, len(work))
	for _, w := range work {
		if k := s.key(w); !seen[k] {
			seen[k] = true
			queue = append(queue, w)
		}
	}
	errs := make([]error, len(queue))
	forEach(len(queue), jobs, func(i int) {
		_, errs[i] = s.do(context.Background(), queue[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach calls f(0) … f(n-1) over a bounded pool of jobs host workers
// (jobs <= 0 means runtime.NumCPU()) and returns when every call has.
func forEach(n, jobs int, f func(i int)) {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			f(i)
		}()
	}
	wg.Wait()
}

// run and view build Work items at the suite's own size/grain.
func (s *Suite) runWork(cfg, app string) Work {
	return Work{Cfg: cfg, App: app, Size: s.Size, Grain: s.Grain}
}

func (s *Suite) viewWork(app string) Work {
	return Work{App: app, Size: s.Size, Grain: s.Grain, View: true}
}

// A Target renders one paperbench target from the suite's cells.
type Target func(s *Suite, w io.Writer, appNames []string) error

// Targets maps each paperbench target that renders from the memo to its
// renderer. The chaos target is not one: its cells each carry their own
// fault scenario, so Chaos fans them out itself.
var Targets = map[string]Target{
	"table3": (*Suite).Table3,
	"table4": (*Suite).Table4,
	"table5": func(s *Suite, w io.Writer, _ []string) error { return s.Table5(w) },
	"fig4":   func(s *Suite, w io.Writer, _ []string) error { return s.Fig4(w, nil) },
	"fig5":   (*Suite).Fig5,
	"fig6":   (*Suite).Fig6,
	"fig7":   (*Suite).Fig7,
	"fig8":   (*Suite).Fig8,
	"uli":    (*Suite).ULIReport,
	"energy": (*Suite).EnergyReport,
	"open":   func(s *Suite, w io.Writer, _ []string) error { return s.Open(w, DefaultOpenSweep(s.Size)) },
	"view":   (*Suite).ViewReport,
}

// Cells lists the cells render reads for appNames under the suite's
// size and grain, once each in first-read order: the worklist Prewarm
// warms so that rendering afterwards computes nothing. It runs render
// against a recording suite, whose memo notes each cell and answers
// with a zero result, so render must read the same cells whatever the
// results hold.
func (s *Suite) Cells(render Target, appNames []string) []Work {
	rec := &Suite{Size: s.Size, Grain: s.Grain, record: true}
	// An error (an unknown app) ends the list early; the render pass
	// meets it again and reports it.
	_ = render(rec, io.Discard, appNames)
	return rec.recorded
}

// Table3Work lists the runs and analyses Table3 performs: per app the
// view, IOx1, O3x1, O3x4, O3x8, bT/MESI, the HCC configs and the DTS
// configs.
func (s *Suite) Table3Work(appNames []string) []Work {
	return s.Cells((*Suite).Table3, appNames)
}
