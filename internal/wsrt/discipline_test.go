package wsrt

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
)

// sumTree returns a root body that counts the leaves of a fork tree of
// the given width and depth into out. Each parent zeroes its children's
// result slots before it forks and sums them after the join, so a
// parent left holding a stale copy of a slot that a stolen child wrote
// reads the zero.
func sumTree(fid, width, depth int, out mem.Addr) Body {
	var node func(c *Ctx, level int, out mem.Addr)
	node = func(c *Ctx, level int, out mem.Addr) {
		c.Compute(8)
		if level == 0 {
			c.Store(out, 1)
			return
		}
		slots := c.Alloc(width)
		bodies := make([]Body, width)
		for i := range bodies {
			slot := slots + mem.Addr(8*i)
			c.Store(slot, 0)
			bodies[i] = func(cc *Ctx) { node(cc, level-1, slot) }
		}
		c.Fork(fid, bodies...)
		var sum uint64
		for i := 0; i < width; i++ {
			sum += c.Load(slots + mem.Addr(8*i))
		}
		c.Store(out, sum)
	}
	return func(c *Ctx) { node(c, depth, out) }
}

// ablationVerdict runs a 3-wide, 4-deep sumTree (81 leaves) under v's
// row as edited by ablate, on an 8-core gwb machine with the oracle on
// and a 400 000-cycle deadline (an intact run takes under 60 000). It
// names the first check that catches the run, in the order a run
// reveals them: the oracle, then how the run ended (the runtime
// crashed on a corrupt deque or a task it holds no record of, or the
// deadline passed), then the program's answer, then the exactly-once
// count. A run no check catches is "cost only".
func ablationVerdict(t *testing.T, v Variant, ablate func(*discipline)) string {
	t.Helper()
	cfg, err := machine.Lookup("bT/HCC-gwb")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Name = "test-ablation-gwb"
	cfg.NumBig, cfg.NumTiny = 1, 7
	cfg.Rows, cfg.Cols = 2, 4
	cfg.NumBanks = 4
	cfg.DTS = v == DTS
	cfg.Oracle = true
	cfg.Deadline = 400_000
	m := machine.New(cfg)
	rt := New(m, v)
	ablate(&rt.disc)
	fid := rt.RegisterFunc("tree", 512)
	out := m.Mem.AllocWords(1)
	err = rt.Run(sumTree(fid, 3, 4, out))
	s := rt.Stats
	switch {
	case m.Oracle.Err() != nil:
		return "oracle"
	case err != nil && strings.Contains(err.Error(), "deadline"):
		return "deadline"
	case err != nil:
		return "crash: " + err.Error()
	case m.Cache.DebugReadWord(out) != 81:
		return "answer"
	case s.LocalExecs+s.StolenExec != s.Spawns+1:
		return "exactly-once"
	}
	return "cost only"
}

// TestDisciplineAblations removes the entries of the HCC and DTS rows
// one at a time and records which check catches each removal: what
// every operation Fig. 3 inserts buys on this machine. An entry a row
// leaves off has nothing to remove, and the steal transport is not an
// inserted operation but the choice between Fig. 3(b) and 3(c).
// Removing the steal hand-off flush is also the planted bug of
// TestOracleCatchesSkippedStealFlush.
func TestDisciplineAblations(t *testing.T) {
	if got := ablationVerdict(t, HCC, func(*discipline) {}); got != "cost only" {
		t.Fatalf("HCC intact: %s", got)
	}
	if got := ablationVerdict(t, DTS, func(*discipline) {}); got != "cost only" {
		t.Fatalf("DTS intact: %s", got)
	}
	cases := []struct {
		v      Variant
		entry  string
		ablate func(*discipline)
		want   string
	}{
		{HCC, "guard", func(d *discipline) { d.guard = unguarded }, "crash"},
		{HCC, "fence", func(d *discipline) { d.fence = false }, "oracle"},
		// A stale probe only misreads emptiness: a steal is missed, or
		// the thief takes the lock and reads the deque again after the
		// fence's invalidate.
		{HCC, "probeInv", func(d *discipline) { d.probeInv = false }, "cost only"},
		{HCC, "stolenFence", func(d *discipline) { d.stolenFence = false }, "answer"},
		{HCC, "stealFlush", func(d *discipline) { d.stealFlush = false }, "oracle"},
		{HCC, "join", func(d *discipline) { d.join = never }, "oracle"},
		// Under HCC the wait loop's own pops invalidate at every
		// iteration, so a plain load of the count and no invalidate
		// after the loop still see the children's writes here.
		{HCC, "readRC", func(d *discipline) { d.readRC = never }, "cost only"},
		{HCC, "waitInv", func(d *discipline) { d.waitInv = never }, "cost only"},
		{DTS, "guard", func(d *discipline) { d.guard = unguarded }, "oracle"},
		{DTS, "stolenFence", func(d *discipline) { d.stolenFence = false }, "answer"},
		{DTS, "stealFlush", func(d *discipline) { d.stealFlush = false }, "deadline"},
		{DTS, "join", func(d *discipline) { d.join = never }, "oracle"},
		{DTS, "readRC", func(d *discipline) { d.readRC = never }, "oracle"},
		{DTS, "waitInv", func(d *discipline) { d.waitInv = never }, "answer"},
		{DTS, "doneAMOEvery", func(d *discipline) { d.doneAMOEvery = 0 }, "deadline"},
	}
	for _, c := range cases {
		got := ablationVerdict(t, c.v, c.ablate)
		t.Logf("%s without %s: %s", c.v, c.entry, got)
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("%s without %s: caught by %q, want %q", c.v, c.entry, got, c.want)
		}
	}
}

// TestDesignTableMatchesRows: DESIGN.md §10 prints the discipline
// table for readers of the design; each of its rows must be the row
// the engine reads.
func TestDesignTableMatchesRows(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	guards := map[guard]string{lockGuard: "lock", maskULI: "ULI mask"}
	whens := map[when]string{never: "never", always: "always", ifStolen: "if stolen"}
	yes := map[bool]string{true: "yes", false: "–"}
	for _, d := range disciplines {
		poll, transport := "load, every iteration", "shared memory"
		if d.doneAMOEvery != 0 {
			poll = fmt.Sprintf("AMO, every %dth", d.doneAMOEvery)
		}
		if d.uli {
			transport = "ULI"
		}
		row := fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
			d.name, guards[d.guard], yes[d.fence], yes[d.probeInv], yes[d.stolenFence], yes[d.stealFlush],
			whens[d.join], whens[d.readRC], whens[d.waitInv], poll, transport)
		if !strings.Contains(string(doc), row) {
			t.Errorf("DESIGN.md §10 lacks the %s row the engine reads:\n%s", d.name, row)
		}
	}
}

// TestNewRejectsUnknownVariant: a Variant with no row is refused when
// the runtime is built, not at its first spawn or pop.
func TestNewRejectsUnknownVariant(t *testing.T) {
	m := smallMachine(t, "gwb", false)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Variant(7)") {
			t.Fatalf("New(Variant(7)) = %v, want a panic naming it", r)
		}
	}()
	New(m, Variant(7))
}
