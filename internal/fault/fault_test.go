package fault

import (
	"strings"
	"testing"

	"bigtiny/internal/sim"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if d := in.NoCDelay(100); d != 0 {
		t.Errorf("nil NoCDelay = %d", d)
	}
	if in.ULIForceNack(100) {
		t.Error("nil ULIForceNack = true")
	}
	if d := in.ULIDelay(100); d != 0 {
		t.Errorf("nil ULIDelay = %d", d)
	}
	if occ, extra := in.DRAMAccess(100, 32); occ != 32 || extra != 0 {
		t.Errorf("nil DRAMAccess = (%d, %d)", occ, extra)
	}
	if s := in.CPUStall(0, 50); s != 0 {
		t.Errorf("nil CPUStall = %d", s)
	}
	if in.CacheEvictTick() {
		t.Error("nil CacheEvictTick = true")
	}
	if in.Total() != 0 {
		t.Error("nil injector counted faults")
	}
	in.Fired(CacheEvict) // must not panic
	if in.Summary() == "" {
		t.Error("nil Summary empty")
	}
}

func TestZeroScenarioInjectsNothing(t *testing.T) {
	sc := Scenario{Name: "zero"}
	in := NewInjector(sc, 7)
	for now := sim.Time(0); now < 10_000; now += 37 {
		if in.NoCDelay(now) != 0 || in.ULIForceNack(now) || in.ULIDelay(now) != 0 {
			t.Fatalf("zero scenario injected at %d", now)
		}
		if occ, extra := in.DRAMAccess(now, 32); occ != 32 || extra != 0 {
			t.Fatalf("zero scenario perturbed DRAM at %d", now)
		}
		if in.CPUStall(0, 100) != 0 || in.CacheEvictTick() {
			t.Fatalf("zero scenario stalled/evicted at %d", now)
		}
	}
	if in.Total() != 0 {
		t.Fatalf("zero scenario counted %d faults", in.Total())
	}
}

// Decisions must be identical for identical seeds and diverge (in the
// aggregate) for different seeds.
func TestSeedDeterminism(t *testing.T) {
	sc, err := Lookup("chaos-all")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) []sim.Time {
		in := NewInjector(sc, seed)
		var out []sim.Time
		for now := sim.Time(0); now < 200_000; now += 113 {
			out = append(out, in.NoCDelay(now), in.ULIDelay(now))
			occ, extra := in.DRAMAccess(now, 32)
			out = append(out, occ, extra)
			if in.ULIForceNack(now) {
				out = append(out, 1)
			}
		}
		return out
	}
	a, b := draw(42), draw(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different draw counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestWindowedFaults(t *testing.T) {
	sc := Scenario{
		NoCBurstPeriod: 1000, NoCBurstLen: 100, NoCBurstDelay: 12,
		DRAMThrottlePeriod: 1000, DRAMThrottleLen: 100, DRAMThrottleFactor: 8,
	}
	in := NewInjector(sc, 1)
	if d := in.NoCDelay(50); d != 12 {
		t.Errorf("in-burst delay = %d, want 12", d)
	}
	if d := in.NoCDelay(500); d != 0 {
		t.Errorf("out-of-burst delay = %d, want 0", d)
	}
	if occ, _ := in.DRAMAccess(1050, 32); occ != 256 {
		t.Errorf("throttled occupancy = %d, want 256", occ)
	}
	if occ, _ := in.DRAMAccess(1500, 32); occ != 32 {
		t.Errorf("unthrottled occupancy = %d, want 32", occ)
	}
	if in.counts[NoCDelay] != 1 || in.counts[DRAMThrottle] != 1 {
		t.Errorf("counts: %s", in.Summary())
	}
}

func TestStragglerSelection(t *testing.T) {
	sc := Scenario{StragglerEvery: 3, StragglerFactor: 3}
	in := NewInjector(sc, 1)
	if s := in.CPUStall(-1, 100); s != 0 {
		t.Errorf("big core stalled %d", s)
	}
	if s := in.CPUStall(0, 100); s != 200 {
		t.Errorf("straggler lane 0 stall = %d, want 200", s)
	}
	if s := in.CPUStall(1, 100); s != 0 {
		t.Errorf("non-straggler lane 1 stall = %d, want 0", s)
	}
	if s := in.CPUStall(3, 100); s != 200 {
		t.Errorf("straggler lane 3 stall = %d, want 200", s)
	}
}

func TestEvictCadence(t *testing.T) {
	in := NewInjector(Scenario{EvictEvery: 4}, 1)
	var fired int
	for i := 0; i < 16; i++ {
		if in.CacheEvictTick() {
			fired++
			in.Fired(CacheEvict)
		}
	}
	if fired != 4 {
		t.Errorf("fired %d of 16, want 4", fired)
	}
	if in.counts[CacheEvict] != 4 {
		t.Errorf("count = %d, want 4", in.counts[CacheEvict])
	}
}

func TestCatalogue(t *testing.T) {
	names := Names()
	for _, want := range []string{"none", "noc-jitter", "uli-nack-storm", "dram-spike", "tiny-straggler", "cache-pressure", "chaos-all"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("catalogue missing %q", want)
		}
	}
	seen := make(map[string]bool)
	for _, sc := range Scenarios() {
		if sc.Name != "none" && sc == (Scenario{Name: sc.Name, Desc: sc.Desc}) {
			t.Errorf("scenario %q injects nothing", sc.Name)
		}
		if sc.Desc == "" {
			t.Errorf("scenario %q has no description", sc.Name)
		}
		// Names must be unique: Lookup resolves by first match, and the
		// chaos sweep and the serving API both key cells by name.
		if seen[sc.Name] {
			t.Errorf("scenario %q registered twice", sc.Name)
		}
		seen[sc.Name] = true
	}
	none, err := Lookup("none")
	if err != nil || none != (Scenario{Name: none.Name, Desc: none.Desc}) {
		t.Errorf("none scenario: %v, %+v", err, none)
	}
	if _, err := Lookup("nonesuch"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("Lookup(nonesuch) = %v", err)
	}
}

func TestSummaryFormat(t *testing.T) {
	in := NewInjector(Scenario{EvictEvery: 1}, 1)
	if got := in.Summary(); got != "no faults injected" {
		t.Errorf("empty summary = %q", got)
	}
	in.Fired(ULINack)
	in.Fired(ULINack)
	in.Fired(CacheEvict)
	got := in.Summary()
	if !strings.Contains(got, "uli-nack=2") || !strings.Contains(got, "cache-evict=1") {
		t.Errorf("summary = %q", got)
	}
	if in.Total() != 3 {
		t.Errorf("total = %d, want 3", in.Total())
	}
}
