package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/stats"
	"bigtiny/internal/store"
	"bigtiny/internal/wsrt"
)

// table3 is the closed, serial simulation workload behind ref-serial
// and unit-construct: a fresh suite per pass, every Table III cell of
// the named apps simulated one at a time, then the table rendered —
// the call sequence of `paperbench -j 1 table3`.
type table3 struct {
	env   env
	size  apps.Size
	apps  []string
	cells []bench.Work // Table3Work in seeded order
	// want is the expected rendering: the repo's reference rows when
	// the size has them, else whatever the warm-up pass rendered.
	want []string
}

// table3Workload returns the workload at the given size over the named
// apps. warmSize is the input size of the untimed warm-up pass; useRef
// checks the rendered rows against env.refFile.
func table3Workload(name, why string, size, warmSize apps.Size, appNames []string, useRef bool) workload {
	return workload{name: name, why: why, setup: func(seed uint64, e env) (instance, error) {
		// The same seed gives the warm-up and the timed passes one order.
		build := func(size apps.Size) *table3 {
			t := &table3{env: e, size: size, apps: appNames, cells: bench.NewSuite(size).Table3Work(appNames)}
			rng := rand.New(rand.NewSource(int64(seed)))
			rng.Shuffle(len(t.cells), func(i, j int) { t.cells[i], t.cells[j] = t.cells[j], t.cells[i] })
			return t
		}
		warm := build(warmSize)
		p, err := warm.pass(nil)
		if err != nil {
			return nil, err
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up pass failed %d of %d operations", name, p.failed, p.attempted)
		}
		t := build(size)
		switch {
		case useRef:
			if t.want, err = referenceRows(e.refFile, appNames); err != nil {
				return nil, err
			}
		case warmSize == size:
			t.want = warm.want
		}
		return t, nil
	}}
}

// referenceRows returns the Table III rows of the named apps from the
// repo's reference rendering (the first table of the file).
func referenceRows(path string, appNames []string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference tables: %w", err)
	}
	table, _, _ := strings.Cut(string(data), "\n\n")
	rows, err := appRows(table, appNames)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// appRows picks, in order, the line of a rendered table that starts
// with each app's name.
func appRows(table string, appNames []string) ([]string, error) {
	lines := strings.Split(table, "\n")
	rows := make([]string, 0, len(appNames))
	for _, app := range appNames {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, app+" ") {
				rows = append(rows, l)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("no Table III row for %s", app)
		}
	}
	return rows, nil
}

func (t *table3) pass(rec *recorder) (*passResult, error) {
	p := &passResult{}
	root := rec.begin("pass", -1, 0)
	t0 := time.Now()
	s := bench.NewSuite(t.size)
	for _, w := range t.cells {
		id := rec.begin("cell", root, 0)
		c0 := time.Now()
		err := s.Prewarm([]bench.Work{w}, 1)
		p.coldMs = append(p.coldMs, ms(time.Since(c0)))
		rec.end(id)
		p.check(t.env.log, err == nil, "%s on %s: %v", w.App, w.Cfg, err)
	}
	var table bytes.Buffer
	id := rec.begin("render", root, 0)
	err := s.Table3(&table, t.apps)
	rec.end(id)
	p.wall = time.Since(t0).Seconds()
	rec.end(root)
	if err != nil {
		return nil, fmt.Errorf("render Table III: %w", err)
	}
	p.simWall, p.jobs, p.jobsWall = p.wall, len(t.cells), p.wall

	rows, err := appRows(table.String(), t.apps)
	if err != nil {
		return nil, err
	}
	if t.want == nil {
		t.want = rows
	}
	for i, row := range rows {
		p.check(t.env.log, row == t.want[i], "Table III row differs from the reference:\n got %q\nwant %q", row, t.want[i])
	}

	for _, w := range t.cells {
		if w.View {
			continue
		}
		r, err := s.Run(w.Cfg, w.App)
		if err != nil {
			continue // counted when the cell ran
		}
		p.cycles += uint64(r.Cycles)
		if u := r.ULI; u != nil {
			p.check(t.env.log, u.Reqs == u.Acks+u.Nacks+u.Drops,
				"%s on %s: uli reqs %d != acks %d + nacks %d + drops %d", w.App, w.Cfg, u.Reqs, u.Acks, u.Nacks, u.Drops)
		}
	}
	scheduled, fired, fastWaits := s.HostCounters()
	p.counts = map[string]uint64{
		"sim_cycles": p.cycles, "sim.scheduled": scheduled, "sim.fired": fired, "sim.fastwaits": fastWaits,
	}
	return p, nil
}

// cellCounts are the model-side counters of one traced pass.
type cellCounts struct {
	scheduled, fired, fastWaits uint64
	insts                       uint64
	tinyAccesses, tinyHits      uint64
	invalidations, flushes      uint64
	nocBytes                    uint64
	uliReqs, uliNacks           uint64
	uliDrops, uliTimeouts       uint64
	tasks, stealTries           uint64
	stealHits                   uint64
}

func (c *cellCounts) add(m *machine.Machine, r *stats.Run) {
	c.scheduled += m.Kernel.Scheduled()
	c.fired += m.Kernel.Fired()
	c.fastWaits += m.Kernel.FastWaits()
	c.insts += r.Insts
	c.tinyAccesses += r.L1Tiny.Accesses()
	c.tinyHits += r.L1Tiny.Hits()
	c.invalidations += r.L1Tiny.InvOps + r.L1Big.InvOps
	c.flushes += r.L1Tiny.FlushOps + r.L1Big.FlushOps
	c.nocBytes += r.Traffic.TotalBytes()
	if u := r.ULI; u != nil {
		c.uliReqs += u.Reqs
		c.uliNacks += u.Nacks
		c.uliDrops += u.Drops
		c.uliTimeouts += u.Timeouts
	}
	c.tasks += r.RT.Spawns
	c.stealTries += r.RT.StealTries
	c.stealHits += r.RT.StealHits
}

// replay runs one cell as Suite.simulate does — the same public calls
// in the same order — with a span around each, and returns the
// machine and its collected statistics.
func (t *table3) replay(rec *recorder, parent int, w bench.Work) (*machine.Machine, *stats.Run, error) {
	step := func(name string, f func()) {
		id := rec.begin(name, parent, 0)
		f()
		rec.end(id)
	}
	var (
		cfg  machine.Config
		app  *apps.App
		err  error
		m    *machine.Machine
		rt   *wsrt.RT
		inst *apps.Instance
		r    *stats.Run
	)
	step("lookup", func() {
		if cfg, err = machine.Lookup(w.Cfg); err == nil {
			app, err = apps.ByName(w.App)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	step("construct", func() {
		m = machine.New(cfg)
		rt = wsrt.New(m, wsrt.AutoVariant(m))
		rt.Grain = app.DefaultGrain
	})
	step("setup", func() { inst = app.Setup(rt, w.Size, w.Grain) })
	root := inst.Root
	if w.Cfg == "IOx1" {
		root = inst.SerialRoot
	}
	step("simulate", func() { err = rt.Run(root) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s on %s: %w", w.App, w.Cfg, err)
	}
	step("verify", func() {
		err = inst.Verify(func(a mem.Addr) uint64 { return m.Cache.DebugReadWord(a) })
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s on %s: verification failed: %w", w.App, w.Cfg, err)
	}
	step("collect", func() { r = stats.Collect(m, rt, w.App) })
	return m, r, nil
}

// traced walks the cells once. Each cell first runs untraced through
// the suite, then again as the benchmark's own traced replay, whose
// cycles must equal the suite's (so the spans time the same program);
// then the served-job tail — encode, store.put — runs under its own
// spans. The tracing overhead is the replays' wall over the suite's.
func (t *table3) traced(rec *recorder) (layerMetrics, float64, error) {
	st, err := store.Open(filepath.Join(t.env.tmpDir, "store"))
	if err != nil {
		return nil, 0, err
	}
	s := bench.NewSuite(t.size)
	var counts cellCounts
	var plain, replayed time.Duration
	root := rec.begin("pass", -1, 0)
	for _, w := range t.cells {
		if w.View {
			id := rec.begin("view", root, 0)
			_, err := s.View(w.App)
			rec.end(id)
			if err != nil {
				return nil, 0, err
			}
			continue
		}
		id := rec.begin("suite (untraced)", root, 0)
		u0 := time.Now()
		err := s.Prewarm([]bench.Work{w}, 1)
		plain += time.Since(u0)
		rec.end(id)
		if err != nil {
			return nil, 0, err
		}
		want, err := s.Run(w.Cfg, w.App)
		if err != nil {
			return nil, 0, err
		}

		cell := rec.begin("cell", root, 0)
		r0 := time.Now()
		m, got, err := t.replay(rec, cell, w)
		replayed += time.Since(r0)
		if err != nil {
			return nil, 0, err
		}
		if got.Cycles != want.Cycles {
			return nil, 0, fmt.Errorf("%s on %s: replay took %d cycles, Suite.Run %d", w.App, w.Cfg, got.Cycles, want.Cycles)
		}
		counts.add(m, got)

		id = rec.begin("encode", cell, 0)
		payload, err := s.ResultJSON(context.Background(), w.Cfg, w.App)
		rec.end(id)
		if err != nil {
			return nil, 0, err
		}
		id = rec.begin("store.put", cell, 0)
		err = st.Put(w.Cfg+"|"+w.App, payload)
		rec.end(id)
		rec.end(cell)
		if err != nil {
			return nil, 0, err
		}
	}
	rec.end(root)

	scheduled, fired, fastWaits := s.HostCounters()
	if scheduled != counts.scheduled || fired != counts.fired || fastWaits != counts.fastWaits {
		return nil, 0, fmt.Errorf("replay kernel counters (%d scheduled, %d fired, %d fast waits) differ from the suite's (%d, %d, %d)",
			counts.scheduled, counts.fired, counts.fastWaits, scheduled, fired, fastWaits)
	}
	lm := layerMetrics{
		"trace.overhead_ratio":    replayed.Seconds() / plain.Seconds(),
		"sim.scheduled":           float64(counts.scheduled),
		"sim.fired":               float64(counts.fired),
		"sim.fastwaits":           float64(counts.fastWaits),
		"cpu.insts":               float64(counts.insts),
		"cache.l1_tiny_hit_ratio": ratio(float64(counts.tinyHits), float64(counts.tinyAccesses)),
		"cache.invalidations":     float64(counts.invalidations),
		"cache.flushes":           float64(counts.flushes),
		"noc.bytes":               float64(counts.nocBytes),
		"uli.reqs":                float64(counts.uliReqs),
		"uli.nacks":               float64(counts.uliNacks),
		"uli.drops":               float64(counts.uliDrops),
		"uli.timeouts":            float64(counts.uliTimeouts),
		"wsrt.tasks":              float64(counts.tasks),
		"wsrt.steal_tries":        float64(counts.stealTries),
		"wsrt.steal_hit_ratio":    ratio(float64(counts.stealHits), float64(counts.stealTries)),
	}
	sst := st.Stats()
	lm["store.hits"], lm["store.misses"], lm["store.errors"] = float64(sst.Hits), float64(sst.Misses), float64(sst.Errors)
	return lm, 2, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
