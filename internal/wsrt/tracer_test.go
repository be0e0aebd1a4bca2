package wsrt

import (
	"testing"

	"bigtiny/internal/trace"
)

// TestTracerRecordsSchedulerEvents exercises the tracing hooks
// end-to-end: every spawn must pair with exactly one execution, and
// steal hits must match the runtime stats.
func TestTracerRecordsSchedulerEvents(t *testing.T) {
	m := smallMachine(t, "gwb", true)
	rt := New(m, DTS)
	rec := &trace.Recorder{}
	rt.Tracer = rec
	fid := rt.RegisterFunc("fib", 512)
	out := m.Mem.AllocWords(1)
	if err := rt.Run(fibProgram(fid, 12, out)); err != nil {
		t.Fatal(err)
	}
	if got := uint64(rec.Count(trace.Spawn)); got != rt.Stats.Spawns {
		t.Errorf("traced spawns %d != stats %d", got, rt.Stats.Spawns)
	}
	if got := uint64(rec.Count(trace.StealHit)); got != rt.Stats.StealHits {
		t.Errorf("traced steal hits %d != stats %d", got, rt.Stats.StealHits)
	}
	if rec.Count(trace.ExecStart) != rec.Count(trace.ExecEnd) {
		t.Error("unbalanced exec events")
	}
	if rec.Count(trace.Done) != 1 {
		t.Errorf("done events = %d, want 1", rec.Count(trace.Done))
	}
	// Events must be weakly time-ordered per core.
	last := map[int]uint64{}
	for _, e := range rec.Events {
		if uint64(e.T) < last[e.Core] {
			t.Fatalf("out-of-order event for core %d", e.Core)
		}
		last[e.Core] = uint64(e.T)
	}
}
