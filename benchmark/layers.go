package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"bigtiny/internal/apps"
	"bigtiny/internal/bench"
	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/graph"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
	"bigtiny/internal/store"
	"bigtiny/internal/wsrt"
)

// The layer drivers time tight loops over one layer's public functions.
// Their operation counts are fixed, so the simulated cycles they report
// repeat exactly; host times are the median over batches.

const driverBatches = 5

// nsPerOp runs f, which performs n operations, driverBatches times and
// returns the median host ns per operation.
func nsPerOp(n int, f func()) float64 {
	samples := make([]float64, driverBatches)
	for i := range samples {
		t0 := time.Now()
		f()
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// runKernel runs a bare kernel to completion; a failure there is a
// broken driver, not a measurement.
func runKernel(k *sim.Kernel) {
	if err := k.Run(nil); err != nil {
		panic(err)
	}
}

func simDrivers(div int) layerMetrics {
	lm := layerMetrics{}

	// Two procs one cycle apart, each delaying two: every event resumes
	// the other proc, one goroutine switch per event.
	handoffs := 100_000 / div
	lm["sim.handoff_ns"] = nsPerOp(2*handoffs, func() {
		k := sim.NewKernel()
		for i := 0; i < 2; i++ {
			k.NewProc(fmt.Sprintf("p%d", i), sim.Time(i), func(p *sim.Proc) {
				for j := 0; j < handoffs; j++ {
					p.Delay(2)
				}
			})
		}
		runKernel(k)
	})

	// Callback events through a 1k-deep queue: the shape of the repo's
	// kernel microbenchmark. Two events fire per iteration.
	const depth = 1024
	events := 200_000 / div
	var mallocs uint64
	lm["sim.event_ns"] = nsPerOp(2*events, func() {
		k := sim.NewKernel()
		fn := func() {}
		for i := 0; i < depth; i++ {
			k.At(sim.Time(i+1), fn)
		}
		k.NewProc("driver", 0, func(p *sim.Proc) {
			for i := 0; i < events; i++ {
				k.At(k.Now()+depth, fn)
				p.Delay(1)
			}
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runKernel(k)
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	lm["sim.event_allocs"] = float64(mallocs) / float64(2*events)

	// A lone proc: nothing else is due, so every wait is elided.
	waits := 2_000_000 / div
	lm["sim.fastwait_ns"] = nsPerOp(waits, func() {
		k := sim.NewKernel()
		k.NewProc("lone", 0, func(p *sim.Proc) {
			for i := 0; i < waits; i++ {
				p.Delay(1)
			}
		})
		runKernel(k)
	})

	// Arm-and-cancel pairs, the steal-timeout pattern: tombstones pile
	// up and the queue compacts.
	pairs := 500_000 / div
	lm["sim.timer_stop_ns"] = nsPerOp(pairs, func() {
		k := sim.NewKernel()
		fn := func() {}
		k.NewProc("armer", 0, func(p *sim.Proc) {
			for i := 0; i < pairs; i++ {
				k.TimerAfter(100, fn).Stop()
				if i%64 == 63 {
					p.Delay(1)
				}
			}
		})
		runKernel(k)
	})
	return lm
}

func mustConfig(name string) machine.Config {
	cfg, err := machine.Lookup(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

func machineDrivers() layerMetrics {
	lm := layerMetrics{}
	bt64, bt8 := mustConfig("bT/HCC-DTS-gwb"), mustConfig("bT8/HCC-DTS-gwb")
	const n64, n8 = 6, 30
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns := nsPerOp(n64, func() {
		for i := 0; i < n64; i++ {
			machine.New(bt64)
		}
	})
	runtime.ReadMemStats(&m1)
	lm["machine.new_ms.bt64"] = ns / 1e6
	lm["machine.new_alloc_mb.bt64"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / (n64 * driverBatches)
	lm["machine.new_ms.bt8"] = nsPerOp(n8, func() {
		for i := 0; i < n8; i++ {
			machine.New(bt8)
		}
	}) / 1e6
	return lm
}

// oneTiny is IOx1 — one tiny core, the full memory system behind it —
// with the tiny-core protocol swapped.
func oneTiny(proto cache.Protocol) machine.Config {
	cfg := mustConfig("IOx1")
	cfg.TinyProto = proto
	return cfg
}

// coreLoop builds a machine, runs body on core 0 (and on core 1 when
// two is set), and reports the median host ns and the exact simulated
// cycles per operation of the measured section: body calls the
// function it is handed once per batch of n operations, after its own
// warm-up.
func coreLoop(cfg machine.Config, two bool, n int, body func(c *cpu.Core, m *machine.Machine, batch func(func()))) (ns, cycles float64) {
	m := machine.New(cfg)
	var hostNs, simCycles []float64
	m.Spawn(0, func(c *cpu.Core) {
		body(c, m, func(ops func()) {
			t0, c0 := time.Now(), c.Now()
			ops()
			hostNs = append(hostNs, float64(time.Since(t0).Nanoseconds())/float64(n))
			simCycles = append(simCycles, float64(c.Now()-c0)/float64(n))
		})
	})
	if two {
		m.Spawn(1, func(c *cpu.Core) { body(c, m, func(ops func()) { ops() }) })
	}
	if err := m.Run(); err != nil {
		panic(err)
	}
	return median(hostNs), median(simCycles)
}

func cacheDrivers(div int) layerMetrics {
	lm := layerMetrics{}
	set := func(name string, ns, cycles float64) {
		lm["cache."+name+"_ns"] = ns
		lm["cache."+name+"_cycles"] = cycles
	}
	line := func(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*mem.LineSize) }
	mesi := oneTiny(cache.MESI)

	hits := 200_000 / div
	ns, cy := coreLoop(mesi, false, hits, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		a := m.Mem.AllocWords(1)
		c.Load(a)
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < hits; i++ {
					c.Load(a)
				}
			})
		}
	})
	set("l1_hit", ns, cy)

	// 1024 lines swept in order: sixteen times the tiny L1, a fraction
	// of the L2, so after the first sweep every load misses the one and
	// hits the other.
	const l2Lines = 1024
	ns, cy = coreLoop(mesi, false, l2Lines, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		base := m.Mem.Alloc(l2Lines * mem.LineSize)
		sweep := func() {
			for i := 0; i < l2Lines; i++ {
				c.Load(line(base, i))
			}
		}
		sweep()
		for b := 0; b < 4*driverBatches; b++ {
			batch(sweep)
		}
	})
	set("l2_hit", ns, cy)

	// Lines never touched before: every load goes to DRAM.
	const misses = 4096
	ns, cy = coreLoop(mesi, false, misses, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		for b := 0; b < driverBatches; b++ {
			base := m.Mem.Alloc(misses * mem.LineSize)
			batch(func() {
				for i := 0; i < misses; i++ {
					c.Load(line(base, i))
				}
			})
		}
	})
	set("dram_miss", ns, cy)

	ns, cy = coreLoop(mesi, false, hits, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		a := m.Mem.AllocWords(1)
		c.Store(a, 1)
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < hits; i++ {
					c.Store(a, uint64(i))
				}
			})
		}
	})
	set("store", ns, cy)

	ns, cy = coreLoop(mesi, false, hits, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		a := m.Mem.AllocWords(1)
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < hits; i++ {
					c.Amo(a, cache.AmoAdd, 1, 0)
				}
			})
		}
	})
	set("amo", ns, cy)

	// Eight dirty lines per flush / eight valid lines per invalidate,
	// the scale of a task's working set at a steal boundary.
	const dirty = 8
	rounds := 20_000 / div
	ns, cy = coreLoop(oneTiny(cache.GPUWB), false, rounds, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		base := m.Mem.Alloc(dirty * mem.LineSize)
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < rounds; i++ {
					for l := 0; l < dirty; l++ {
						c.Store(line(base, l), uint64(i))
					}
					c.Flush()
				}
			})
		}
	})
	lm["cache.flush_ns.gwb"], lm["cache.flush_cycles.gwb"] = ns, cy

	ns, cy = coreLoop(oneTiny(cache.DeNovo), false, rounds, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		base := m.Mem.Alloc(dirty * mem.LineSize)
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < rounds; i++ {
					for l := 0; l < dirty; l++ {
						c.Load(line(base, l))
					}
					c.Invalidate()
				}
			})
		}
	})
	lm["cache.invalidate_ns.dnv"], lm["cache.invalidate_cycles.dnv"] = ns, cy

	// Two big cores storing to one line: ownership bounces on every
	// store.
	bounces := 50_000 / div
	var shared mem.Addr
	allocated := false
	ns, cy = coreLoop(mustConfig("O3x4"), true, bounces, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		if !allocated {
			shared, allocated = m.Mem.AllocWords(1), true
		}
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < bounces; i++ {
					c.Store(shared, uint64(i))
					c.Compute(4)
				}
			})
		}
	})
	set("mesi_pingpong", ns, cy)
	return lm
}

func cpuDriver(div int) layerMetrics {
	computes := 500_000 / div
	ns, _ := coreLoop(oneTiny(cache.MESI), false, computes, func(c *cpu.Core, m *machine.Machine, batch func(func())) {
		for b := 0; b < driverBatches; b++ {
			batch(func() {
				for i := 0; i < computes; i++ {
					c.Compute(8)
				}
			})
		}
	})
	return layerMetrics{"cpu.compute_ns": ns}
}

func nocDriver(seed uint64, div int) layerMetrics {
	sends := 500_000 / div
	rng := rand.New(rand.NewSource(int64(seed)))
	mesh := noc.NewMesh(9, 8)
	from, to := make([]noc.NodeID, 1024), make([]noc.NodeID, 1024)
	for i := range from {
		from[i] = mesh.Node(rng.Intn(9), rng.Intn(8))
		to[i] = mesh.Node(rng.Intn(9), rng.Intn(8))
	}
	var now sim.Time
	return layerMetrics{"noc.send_ns": nsPerOp(sends, func() {
		for i := 0; i < sends; i++ {
			mesh.Send(now, from[i%1024], to[i%1024], 72, noc.DataResp)
			now += 4
		}
	})}
}

// wsrtDrivers times the three runtime engines on an 8-core machine: a
// parallel-for of 4096 iterations of Compute(50), host ns per task
// spawned.
func wsrtDrivers() layerMetrics {
	lm := layerMetrics{}
	for _, v := range []struct {
		metric  string
		proto   cache.Protocol
		dts     bool
		variant wsrt.Variant
	}{
		{"wsrt.task_ns.hw", cache.MESI, false, wsrt.HW},
		{"wsrt.task_ns.hcc", cache.GPUWB, false, wsrt.HCC},
		{"wsrt.task_ns.dts", cache.GPUWB, true, wsrt.DTS},
	} {
		cfg := mustConfig("bT8/MESI")
		cfg.TinyProto, cfg.DTS = v.proto, v.dts
		samples := make([]float64, driverBatches)
		for i := range samples {
			m := machine.New(cfg)
			rt := wsrt.New(m, v.variant)
			fid := rt.RegisterFunc("bench", 512)
			const n = 4096
			arr := m.Mem.AllocWords(n)
			t0 := time.Now()
			err := rt.Run(func(c *wsrt.Ctx) {
				c.ParallelFor(fid, 0, n, 16, func(cc *wsrt.Ctx, j int) {
					cc.Compute(50)
					cc.Store(arr+mem.Addr(j*8), uint64(j))
				})
			})
			if err != nil {
				panic(err)
			}
			samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(rt.Stats.Spawns)
		}
		lm[v.metric] = median(samples)
	}
	return lm
}

func graphDriver(seed uint64) layerMetrics {
	return layerMetrics{"graph.rmat_ms": nsPerOp(1, func() { graph.RMat(11, 8, seed) }) / 1e6}
}

// benchDrivers times the encode and render paths on a warm suite.
func benchDrivers(div int) (layerMetrics, error) {
	names := []string{"cilk5-cs", "ligra-bfs"}
	s := bench.NewSuite(apps.Unit)
	if err := s.Prewarm(s.Table3Work(names), 1); err != nil {
		return nil, err
	}
	var err error
	encodes, renders := 2000/div, 200/div
	lm := layerMetrics{}
	lm["bench.encode_us"] = nsPerOp(encodes, func() {
		for i := 0; i < encodes; i++ {
			if _, e := s.ResultJSON(context.Background(), "bT/HCC-DTS-gwb", "cilk5-cs"); e != nil {
				err = e
			}
		}
	}) / 1e3
	lm["bench.render_ms"] = nsPerOp(renders, func() {
		for i := 0; i < renders; i++ {
			var buf bytes.Buffer
			if e := s.Table3(&buf, names); e != nil {
				err = e
			}
		}
	}) / 1e6
	return lm, err
}

// storeDrivers times the store on a directory of its own: 4 KB
// payloads, the fsync inside Put included.
func storeDrivers(dir string, div int) (layerMetrics, error) {
	st, err := store.Open(filepath.Join(dir, "driver-store"))
	if err != nil {
		return nil, err
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 256)
	puts, gets := 40, 4000/div
	key := func(i int) string { return fmt.Sprintf("driver|%d", i) }
	lm := layerMetrics{}
	lm["store.put_us"] = nsPerOp(puts, func() {
		for i := 0; i < puts; i++ {
			if e := st.Put(key(i), payload); e != nil {
				err = e
			}
		}
	}) / 1e3
	lm["store.get_us"] = nsPerOp(gets, func() {
		for i := 0; i < gets; i++ {
			if _, ok := st.Get(key(i % puts)); !ok {
				err = fmt.Errorf("store driver: key %d missing", i%puts)
			}
		}
	}) / 1e3
	lm["store.miss_us"] = nsPerOp(gets, func() {
		for i := 0; i < gets; i++ {
			st.Get(key(puts + i))
		}
	}) / 1e3
	return lm, err
}

// layerDrivers runs every driver. They do not depend on the workload;
// each -trace 1 run repeats them so its per-layer report is complete.
// div divides the loop lengths (1 in a real run; the tests pass more).
func layerDrivers(seed uint64, dir string, div int) (layerMetrics, error) {
	lm := layerMetrics{}
	for _, part := range []layerMetrics{
		simDrivers(div), machineDrivers(), cacheDrivers(div), cpuDriver(div), nocDriver(seed, div), wsrtDrivers(), graphDriver(seed),
	} {
		lm.merge(part)
	}
	b, err := benchDrivers(div)
	if err != nil {
		return nil, err
	}
	lm.merge(b)
	s, err := storeDrivers(dir, div)
	if err != nil {
		return nil, err
	}
	lm.merge(s)
	return lm, nil
}
