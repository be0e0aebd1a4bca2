package cache

import (
	"fmt"
	"reflect"
	"testing"

	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// TestNames pins the names the package's enums print with, including
// the fallback for a value outside the enum.
func TestNames(t *testing.T) {
	for v, want := range map[fmt.Stringer]string{
		MESI: "MESI", DeNovo: "DeNovo", GPUWT: "GPU-WT", GPUWB: "GPU-WB", Protocol(7): "Protocol(7)",
		AmoAdd: "amo_add", AmoOr: "amo_or", AmoAnd: "amo_and", AmoXchg: "amo_xchg", AmoCAS: "amo_cas",
		AmoOp(9): "amo(9)",
	} {
		if got := v.String(); got != want {
			t.Errorf("%#v prints %q, want %q", v, got, want)
		}
	}
}

// TestBrokenInvariantsPanic checks that each guard on a broken
// invariant fires: a geometry or protocol the model cannot build, an
// unknown AMO, and a recall of a line the L1 does not hold.
func TestBrokenInvariantsPanic(t *testing.T) {
	sys := newTestSystem(t, []Protocol{MESI}, 4096)
	for name, f := range map[string]func(){
		"NewSystem without MCs": func() { NewSystem(Config{NumCores: 1}, sys.Mesh(), sys.Mem()) },
		"NewL1 under a set":     func() { NewL1(sys, 0, MESI, mem.LineSize, 2) },
		"NewL1 of no protocol":  func() { NewL1(sys, 0, Protocol(7), 4096, 2) },
		"ApplyAmo of no op":     func() { ApplyAmo(AmoOp(9), 0, 0, 0) },
		"recall of no line":     func() { sys.L1(0).recall(0, 0xFF, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// accessLog is an Oracle that records every access it observes.
type accessLog []string

func (l *accessLog) OnLoad(core int, a, v uint64) {
	*l = append(*l, fmt.Sprintf("load %d %#x %d", core, a, v))
}
func (l *accessLog) OnStore(core int, a, v uint64) {
	*l = append(*l, fmt.Sprintf("store %d %#x %d", core, a, v))
}
func (l *accessLog) OnAmo(core int, a, old, newVal uint64, wrote bool) {
	*l = append(*l, fmt.Sprintf("amo %d %#x %d %d %v", core, a, old, newVal, wrote))
}

// TestOracleSeesEveryAccess checks that an L1 reports each load, store
// and AMO to its oracle in issue order, with the values it read and
// wrote.
func TestOracleSeesEveryAccess(t *testing.T) {
	sys := newTestSystem(t, []Protocol{DeNovo}, 4096)
	var log accessLog
	l1 := sys.L1(0)
	l1.Oracle = &log
	a := sys.Mem().Alloc(mem.LineSize)
	now := l1.Store(0, a, 5)
	_, now = l1.Amo(now, a, AmoCAS, 4, 9)
	_, now = l1.Amo(now, a, AmoAdd, 2, 0)
	l1.Load(now, a)
	want := accessLog{
		fmt.Sprintf("store 0 %#x 5", a),
		fmt.Sprintf("amo 0 %#x 5 5 false", a),
		fmt.Sprintf("amo 0 %#x 5 7 true", a),
		fmt.Sprintf("load 0 %#x 7", a),
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("oracle saw %q, want %q", log, want)
	}
}

// TestResetEqualsFresh runs an op stream, resets the system with its
// memory, mesh and DRAM, and runs the same stream again: every value,
// completion time and counter must match the first run's, so a reset
// hierarchy, whose sets come from the spare lists, behaves as a fresh
// one.
func TestResetEqualsFresh(t *testing.T) {
	sys, base := opSystem([]Protocol{MESI, DeNovo, GPUWT, GPUWB}, nil)
	run := func() string {
		r := sim.NewRand(5)
		now := make([]sim.Time, 4)
		var out []uint64
		for i := 0; i < 2000; i++ {
			v, done := randomOp(r, 4).do(sys, base, now)
			out = append(out, v, uint64(done))
		}
		for c := 0; c < 4; c++ {
			out = append(out, sys.L1(c).Stats.Hits())
		}
		return fmt.Sprint(out, sys.L2Stats, sys.Mesh().Traffic)
	}
	first := run()
	sys.Mem().Reset()
	sys.Mesh().Reset()
	for _, mc := range sys.cfg.MCs {
		mc.Reset()
	}
	sys.Reset()
	if b := sys.Mem().Alloc(opLines * mem.LineSize); b != base {
		t.Fatalf("region at %#x after the reset, %#x before", uint64(b), uint64(base))
	}
	if again := run(); again != first {
		t.Fatal("a run after Reset differs from the run on the fresh system")
	}
}

// TestL1StatsAdd checks that Add sums every counter and that a cache
// with no accesses reports a hit rate of 1.
func TestL1StatsAdd(t *testing.T) {
	var sum L1Stats
	if sum.HitRate() != 1 {
		t.Fatalf("hit rate of no accesses is %v, want 1", sum.HitRate())
	}
	one := L1Stats{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	sum.Add(&one)
	sum.Add(&one)
	if want := (L1Stats{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}); sum != want {
		t.Fatalf("sum %+v, want %+v", sum, want)
	}
}
