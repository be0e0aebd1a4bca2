// Package cilkview reproduces the role Cilkview plays in the paper's
// methodology (§V-D, Table III): it executes a task-parallel program
// natively while accounting work (total abstract instructions), span
// (critical-path instructions), logical parallelism (work/span), and
// IPT (average instructions per task). The paper uses these numbers to
// choose task granularities (Figure 4) and reports them per app in
// Table III.
package cilkview

import (
	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// Report is one Cilkview analysis result.
type Report struct {
	Work  uint64 // total abstract instructions
	Span  uint64 // critical-path instructions
	Tasks uint64 // tasks created (fork branches)
}

// Parallelism returns work/span (the paper's "Para" column).
func (r Report) Parallelism() float64 {
	if r.Span == 0 {
		return 1
	}
	return float64(r.Work) / float64(r.Span)
}

// IPT returns average instructions per task (Table III's "IPT").
func (r Report) IPT() float64 {
	if r.Tasks == 0 {
		return float64(r.Work)
	}
	return float64(r.Work) / float64(r.Tasks)
}

// Analyze builds a native runtime over a fresh memory, lets setup
// construct the program against it, and returns the DAG analysis.
// setup receives the runtime (for allocation and function
// registration) and returns the root body.
func Analyze(setup func(rt *wsrt.RT) wsrt.Body) Report {
	rt := wsrt.NewNative(mem.New())
	root := setup(rt)
	work, span, tasks := rt.Analyze(root)
	return Report{Work: work, Span: span, Tasks: tasks}
}
