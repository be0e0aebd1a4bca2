package wsrt

import (
	"testing"
	"testing/quick"

	"bigtiny/internal/cache"
)

// Property: under random fork trees, none of the three engines loses or
// duplicates a task — every spawned task executes exactly once, and
// every leaf's increment lands.
func TestForkTreeExactlyOnceProperty(t *testing.T) {
	engines := []struct {
		proto string
		dts   bool
		v     Variant
	}{{"mesi", false, HW}, {"gwb", false, HCC}, {"gwb", true, DTS}}
	for _, e := range engines {
		f := func(seed uint8, width uint8) bool {
			depth := int(seed%3) + 2
			w := int(width%2) + 2
			m := smallMachine(t, e.proto, e.dts)
			rt := New(m, e.v)
			fid := rt.RegisterFunc("tree", 512)
			acc := m.Mem.AllocWords(1)
			var rec func(c *Ctx, level int)
			rec = func(c *Ctx, level int) {
				c.Compute(5)
				if level == 0 {
					c.Amo(acc, cache.AmoAdd, 1, 0)
					return
				}
				bodies := make([]Body, w)
				for i := range bodies {
					bodies[i] = func(cc *Ctx) { rec(cc, level-1) }
				}
				c.Fork(fid, bodies...)
			}
			leaves := uint64(1)
			for i := 0; i < depth; i++ {
				leaves *= uint64(w)
			}
			if err := rt.Run(func(c *Ctx) { rec(c, depth) }); err != nil {
				t.Log(err)
				return false
			}
			if got := m.Cache.DebugReadWord(acc); got != leaves {
				t.Logf("%s: leaves executed %d, want %d", e.v, got, leaves)
				return false
			}
			s := rt.Stats
			return s.LocalExecs+s.StolenExec == s.Spawns+1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("%s: %v", e.v, err)
		}
	}
}
