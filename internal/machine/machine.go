// Package machine composes complete simulated systems out of the
// substrate packages: cores + L1s + mesh + banked L2 + DRAM + optional
// ULI fabric, following the paper's Table II configuration and the
// Figure 1 floorplan (big cores interleaved in the bottom row of the
// tiny-core mesh, one L2 bank and one memory controller per mesh
// column).
package machine

import (
	"context"
	"fmt"
	"sync"

	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/dram"
	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/oracle"
	"bigtiny/internal/sim"
	"bigtiny/internal/uli"
)

// Config describes one simulated system.
type Config struct {
	Name string
	// NumBig / NumTiny are the core counts (big cores come first in
	// core-ID order).
	NumBig, NumTiny int
	// TinyProto is the tiny cores' L1 protocol. Big cores always use
	// MESI.
	TinyProto cache.Protocol
	// DTS enables the ULI fabric (direct task stealing hardware).
	DTS bool
	// Rows x Cols is the core mesh; an extra row is added for L2 banks
	// and memory controllers.
	Rows, Cols int
	// NumBanks is the number of L2 banks (== memory controllers).
	NumBanks int
	// L1BigBytes / L1TinyBytes size the private data caches.
	L1BigBytes, L1TinyBytes int
	// L2SetsPerBank / L2Ways size each L2 bank.
	L2SetsPerBank, L2Ways int
	// DRAMBytesPerCycle is the total memory bandwidth.
	DRAMBytesPerCycle float64
	// Deadline aborts runaway simulations (cycles); 0 = none.
	Deadline sim.Time
	// Faults, when non-nil, selects a fault-injection scenario; New
	// builds a fresh Injector seeded with FaultSeed for each machine,
	// so one Config can build many machines without shared state.
	Faults    *fault.Scenario
	FaultSeed uint64
	// Oracle attaches a memory-ordering checker to every L1; Run fails
	// if any load observed a value no legal per-location order allows.
	Oracle bool
}

// NumCores returns the total core count.
func (c *Config) NumCores() int { return c.NumBig + c.NumTiny }

// Machine is an instantiated system ready to run simulated software.
type Machine struct {
	Cfg    Config
	Kernel *sim.Kernel
	Mesh   *noc.Mesh
	Mem    *mem.Memory
	Cache  *cache.System
	Cores  []*cpu.Core
	ULI    *uli.Fabric // nil unless Cfg.DTS
	MCs    []*dram.Controller
	// Faults is this machine's fault injector (nil unless Cfg.Faults).
	Faults *fault.Injector
	// Oracle is the memory-ordering checker (nil unless Cfg.Oracle).
	Oracle *oracle.Checker

	// procNames are Spawn's proc names, "core<i>", each made by the
	// core's first Spawn and kept across Release.
	procNames []string

	// unwatch stops the InterruptOn watcher, if there is one, and
	// reports whether it did so before the watcher fired. It is called
	// once (sync.OnceValue) and touches no machine, so the copy
	// InterruptOn returns is safe to call after Release.
	unwatch func() bool
}

// shape is what building a machine reads of its Config: everything but
// the name, the deadline and the fault scenario and seed, which New
// applies to whichever machine it hands out. paranoid is
// sim.KernelParanoid as the machine's kernel and cores were reset.
type shape struct {
	cfg      Config
	faults   bool
	paranoid bool
}

func shapeOf(cfg Config) shape {
	faults := cfg.Faults != nil
	cfg.Name, cfg.Deadline, cfg.Faults, cfg.FaultSeed = "", 0, nil, 0
	return shape{cfg: cfg, faults: faults, paranoid: sim.KernelParanoid}
}

// pools holds the released machines of each shape (see Release). A
// sync.Pool needs no cap: the collector drops whatever waits in it
// across two of its cycles, so it holds about as many machines as
// cells of the shape ran at once, and an idle process none.
var pools = struct {
	sync.Mutex
	m map[shape]*sync.Pool
}{m: map[shape]*sync.Pool{}}

func poolOf(s shape) *sync.Pool {
	pools.Lock()
	defer pools.Unlock()
	if pools.m[s] == nil {
		pools.m[s] = new(sync.Pool)
	}
	return pools.m[s]
}

// New returns a machine built from cfg: a released machine of the same
// shape, reset in place, or a new one.
func New(cfg Config) *Machine {
	if cfg.Rows*cfg.Cols < cfg.NumCores() {
		panic(fmt.Sprintf("machine %q: %dx%d mesh cannot hold %d cores",
			cfg.Name, cfg.Rows, cfg.Cols, cfg.NumCores()))
	}
	if cfg.NumBanks > cfg.Cols {
		panic(fmt.Sprintf("machine %q: %d banks need %d columns", cfg.Name, cfg.NumBanks, cfg.NumBanks))
	}
	m, _ := poolOf(shapeOf(cfg)).Get().(*Machine)
	if m == nil {
		m = build(cfg)
	}
	m.configure(cfg)
	return m
}

// Release hands m back for a later New of its shape; its owner must
// have finished reading it. Only a machine whose run took the
// simulation to its end is kept: the queue drained with every proc
// finished, no error, panic, oracle violation or interrupt, and its
// InterruptOn watcher stopped before it fired. Any other machine is
// left to the collector. Release resets a kept machine at once, so a
// pooled machine pins no proc, closure or program data.
func (m *Machine) Release() {
	if (m.unwatch != nil && !m.unwatch()) || !m.Kernel.Finished() || m.Oracle.Err() != nil {
		return
	}
	m.Kernel.Reset()
	m.Mem.Reset()
	m.Mesh.Reset()
	for _, mc := range m.MCs {
		mc.Reset()
	}
	m.Cache.Reset()
	for _, c := range m.Cores {
		c.Reset()
	}
	if m.ULI != nil {
		m.ULI.Reset()
	}
	if m.Oracle != nil {
		m.Oracle.Reset()
	}
	m.unwatch = nil
	poolOf(shapeOf(m.Cfg)).Put(m)
}

// configure applies what New takes from cfg beyond its shape to a
// machine fresh from build or Release.
func (m *Machine) configure(cfg Config) {
	m.Cfg = cfg
	if cfg.Deadline > 0 {
		m.Kernel.SetDeadline(cfg.Deadline)
	}
	if m.Faults != nil {
		m.Faults.Reset(*cfg.Faults, cfg.FaultSeed)
	}
	if m.ULI != nil {
		if cfg.Faults != nil && cfg.Faults.Lossy() {
			// Steal-path messages can vanish: arm the thief-side timeout.
			// Left at zero otherwise so fault-free runs schedule no
			// timers and keep bit-identical cycle counts.
			m.ULI.Timeout = uli.DefaultStealTimeout
		}
		m.Kernel.AddDumpHook(m.ULI.DumpState)
	}
}

// build constructs a machine of cfg's shape; configure completes it.
func build(cfg Config) *Machine {
	k := sim.NewKernel()
	var inj *fault.Injector
	if cfg.Faults != nil {
		inj = new(fault.Injector) // seeded by configure
	}
	// Core mesh plus one extra row for L2 banks / memory controllers.
	mesh := noc.NewMesh(cfg.Rows+1, cfg.Cols)
	mesh.Faults = inj
	backing := mem.New()

	coreNodes := placeCores(mesh, cfg)

	var bankNodes []noc.NodeID
	var mcs []*dram.Controller
	perMC := dram.Config{
		AccessLat:     60,
		BytesPerCycle: cfg.DRAMBytesPerCycle / float64(cfg.NumBanks),
		LineBytes:     mem.LineSize,
	}
	for b := 0; b < cfg.NumBanks; b++ {
		col := b * cfg.Cols / cfg.NumBanks
		bankNodes = append(bankNodes, mesh.Node(cfg.Rows, col))
		mc := dram.NewController(perMC)
		mc.Faults = inj
		mcs = append(mcs, mc)
	}

	cs := cache.NewSystem(cache.Config{
		NumCores:      cfg.NumCores(),
		CoreNode:      coreNodes,
		BankNode:      bankNodes,
		L2SetsPerBank: cfg.L2SetsPerBank,
		L2Ways:        cfg.L2Ways,
		MCs:           mcs,
	}, mesh, backing)

	var fabric *uli.Fabric
	if cfg.DTS {
		fabric = uli.NewFabric(k, cfg.Rows+1, cfg.Cols, cfg.NumCores(),
			func(core int) noc.NodeID { return coreNodes[core] })
		fabric.Faults = inj
	}

	var chk *oracle.Checker
	if cfg.Oracle {
		chk = oracle.New(cfg.NumCores())
	}

	m := &Machine{
		Kernel: k, Mesh: mesh, Mem: backing, Cache: cs,
		ULI: fabric, MCs: mcs, Faults: inj, Oracle: chk,
	}
	for c := 0; c < cfg.NumCores(); c++ {
		big := c < cfg.NumBig
		var l1 *cache.L1
		var coreCfg cpu.Config
		if big {
			coreCfg = cpu.BigConfig()
			l1 = cache.NewL1(cs, c, cache.MESI, cfg.L1BigBytes, 2)
		} else {
			coreCfg = cpu.TinyConfig()
			l1 = cache.NewL1(cs, c, cfg.TinyProto, cfg.L1TinyBytes, 2)
		}
		l1.Faults = inj
		if chk != nil {
			// Guarded assignment: a typed-nil Checker in the interface
			// field would defeat the L1's nil check.
			l1.Oracle = chk
		}
		var unit *uli.Unit
		if fabric != nil {
			unit = fabric.Unit(c)
		}
		core := cpu.New(c, coreCfg, l1, unit)
		core.Faults = inj
		if !big {
			// Straggler selection indexes tiny cores only; big cores are
			// exempt (FaultLane stays -1 from cpu.New).
			core.FaultLane = c - cfg.NumBig
		}
		m.Cores = append(m.Cores, core)
	}
	m.procNames = make([]string, len(m.Cores))
	return m
}

// placeCores assigns mesh nodes per the Figure 1 floorplan: big cores
// interleave across the bottom core row; tiny cores fill the remaining
// nodes row-major.
func placeCores(mesh *noc.Mesh, cfg Config) []noc.NodeID {
	nodes := make([]noc.NodeID, cfg.NumCores())
	used := make(map[noc.NodeID]bool)
	bottom := cfg.Rows - 1
	for b := 0; b < cfg.NumBig; b++ {
		col := b * cfg.Cols / max(cfg.NumBig, 1)
		if cfg.NumBig > 1 && cfg.NumBig*2 <= cfg.Cols {
			col = b * 2 // B T B T ... as drawn in Figure 1
		}
		n := mesh.Node(bottom, col)
		nodes[b] = n
		used[n] = true
	}
	next := 0
	for c := cfg.NumBig; c < cfg.NumCores(); c++ {
		for {
			n := noc.NodeID(next)
			next++
			r, _ := mesh.RowCol(n)
			if r >= cfg.Rows {
				panic("machine: ran out of mesh nodes")
			}
			if !used[n] {
				nodes[c] = n
				used[n] = true
				break
			}
		}
	}
	return nodes
}

// Spawn starts body as the software thread on the given core at time 0.
// The ops body leaves queued on the core issue before the thread ends.
func (m *Machine) Spawn(core int, body func(*cpu.Core)) {
	c := m.Cores[core]
	if m.procNames[core] == "" {
		m.procNames[core] = fmt.Sprintf("core%d", core)
	}
	m.Kernel.NewProc(m.procNames[core], 0, func(p *sim.Proc) {
		c.Bind(p)
		body(c)
		c.Drain()
	})
}

// InterruptOn ties the machine's run to ctx: when ctx is cancelled the
// kernel is interrupted and Run fails at its next event with "<what>
// cancelled: <cause>" and the watchdog dump. A context that is already
// dead interrupts here and now — nothing in a run parks the simulating
// goroutine, so a watcher alone could lose that race by the whole run.
// Call the returned release once the run is over; Release calls it
// too, and keeps a machine whose watcher had fired out of the pool.
func (m *Machine) InterruptOn(ctx context.Context, what string) (release func() bool) {
	k := m.Kernel
	interrupt := func() {
		k.Interrupt(fmt.Sprintf("%s cancelled: %v", what, ctx.Err()))
	}
	if ctx.Err() != nil {
		interrupt()
		return func() bool { return false }
	}
	m.unwatch = sync.OnceValue(context.AfterFunc(ctx, interrupt))
	return m.unwatch
}

// Run drives the simulation to completion. With the oracle enabled,
// any observed memory-ordering violation fails the run; it takes
// precedence over a kernel error (deadline/deadlock), because an
// ordering bug is usually the *cause* of the hang.
func (m *Machine) Run() error {
	err := m.Kernel.Run(nil)
	if oerr := m.Oracle.Err(); oerr != nil {
		if err != nil {
			return fmt.Errorf("%w (and the run failed: %v)", oerr, err)
		}
		return oerr
	}
	return err
}
