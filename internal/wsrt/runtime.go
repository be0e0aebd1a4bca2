package wsrt

import (
	"fmt"
	"io"

	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/prog"
	"bigtiny/internal/sim"
	"bigtiny/internal/trace"
)

// Variant selects the spawn/wait engine.
type Variant int

// The three runtime implementations of paper Figure 3.
const (
	// HW is the baseline for hardware-based cache coherence (Fig. 3a).
	// Running it on an HCC machine is the negative control: it computes
	// wrong answers because it never invalidates or flushes.
	HW Variant = iota
	// HCC adds the cache_invalidate/cache_flush discipline required on
	// heterogeneous cache coherence (Fig. 3b).
	HCC
	// DTS uses user-level interrupts for direct task stealing, making
	// task queues private and synchronization conditional on actual
	// steals (Fig. 3c). Requires a machine with ULI hardware.
	DTS
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case HW:
		return "HW"
	case HCC:
		return "HCC"
	case DTS:
		return "DTS"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// AutoVariant picks the natural runtime for a machine: DTS if it has
// ULI hardware, HCC if the tiny cores use a software-centric protocol,
// HW otherwise.
func AutoVariant(m *machine.Machine) Variant {
	if m.Cfg.DTS {
		return DTS
	}
	if m.Cfg.TinyProto != cache.MESI {
		return HCC
	}
	return HW
}

// Costs are the runtime's abstract instruction costs, charged on top
// of the memory operations the engine performs. DefaultCosts matches
// the paper's modelled runtime.
type Costs struct {
	// Spawn is the task-creation overhead (descriptor setup).
	Spawn int
	// DequeOp is one enqueue/dequeue/steal deque manipulation.
	DequeOp int
	// VictimSelect is the thief's victim-selection computation.
	VictimSelect int
	// WaitIter is one iteration of the wait loop's bookkeeping.
	WaitIter int
	// HandlerBody is the DTS ULI steal handler body.
	HandlerBody int
	// TaskProlog is the per-task entry sequence.
	TaskProlog int
	// IdleBackoff seeds the exponential idle backoff: a failed steal
	// spins IdleBackoff << failStreak cycles, capped at IdleBackoffCap;
	// the streak stops growing at IdleBackoffShift.
	IdleBackoff      int
	IdleBackoffCap   int
	IdleBackoffShift int
}

// DefaultCosts returns the modelled runtime's instruction costs.
func DefaultCosts() Costs {
	return Costs{
		Spawn:        12,
		DequeOp:      8,
		VictimSelect: 6,
		WaitIter:     4,
		HandlerBody:  12,
		TaskProlog:   6,

		IdleBackoff:      16,
		IdleBackoffCap:   4096,
		IdleBackoffShift: 9,
	}
}

// Runtime function ids for the instruction-cache model.
const (
	fidRuntime = 1 // scheduler/deque code
	fidFirst   = 8 // first application fid
)

// RT is a work-stealing runtime instance bound to one machine (or, for
// native analysis runs, to a bare memory).
type RT struct {
	M       *machine.Machine
	Variant Variant

	// nativeMem backs machine-less native runtimes (NewNative).
	nativeMem *mem.Memory

	nthreads int
	deques   []deque
	doneAddr mem.Addr

	tasks map[mem.Addr]*taskRec
	free  [][]mem.Addr // per-thread descriptor free lists
	funcs []FuncInfo
	Stats RunStats

	// Grain is the default parallel_for grain (task granularity, §V-D).
	Grain int

	// Costs are the runtime's abstract instruction costs (set to
	// DefaultCosts by New/NewNative).
	Costs Costs

	// Tracer, when non-nil, records cycle-stamped scheduler events
	// (spawns, steals, task execution) for offline inspection.
	Tracer *trace.Recorder

	// --- recovery state (lossy fault scenarios) ---

	// lossy is set by Run when the machine's fault scenario can lose
	// steal-path messages or offline a core. It gates every recovery
	// code path, so fault-free runs draw no extra PRNG values and burn
	// no extra cycles (zero-cost-when-off).
	lossy bool
	// offlineMark[t] is set by thread t itself when it fail-stops.
	// Reading it is free for thieves — modelling a memory-mapped core
	// liveness register that costs nothing to consult.
	offlineMark []bool
	// vfails[v] counts consecutive failed steals (NACKs/timeouts)
	// against victim v across all thieves; reaching quarantineThreshold
	// quarantines v until quarUntil[v].
	vfails    []int
	quarUntil []sim.Time
	// degradedSince is the cycle of the first core loss (0 = none).
	degradedSince sim.Time

	// SkipStealFlush omits the cache_flush in the steal hand-off paths
	// (the DTS handler and the HCC steal). Test-only: it plants the
	// protocol bug the memory-ordering oracle must catch.
	SkipStealFlush bool
}

// quarantineThreshold is the consecutive-failure count that quarantines
// a victim; quarantineCycles is how long the quarantine lasts.
// Quarantined victims are skipped by victim selection unless they are
// known offline (those must stay choosable so their stranded work gets
// reclaimed).
const (
	quarantineThreshold = 16
	quarantineCycles    = sim.Time(20_000)
)

// New builds a runtime for m. HW and HCC run on any machine; DTS
// requires a machine built with ULI hardware.
func New(m *machine.Machine, v Variant) *RT {
	if v == DTS && m.ULI == nil {
		panic("wsrt: DTS requires a machine with ULI hardware")
	}
	n := len(m.Cores)
	rt := &RT{
		M: m, Variant: v, nthreads: n,
		tasks: make(map[mem.Addr]*taskRec),
		free:  make([][]mem.Addr, n),
		funcs: make([]FuncInfo, fidFirst),
		Grain: 32,
		Costs: DefaultCosts(),

		offlineMark: make([]bool, n),
		vfails:      make([]int, n),
		quarUntil:   make([]sim.Time, n),
	}
	rt.funcs[fidRuntime] = FuncInfo{Name: "runtime", Footprint: 2048}
	rt.doneAddr = m.Mem.AllocWords(1)
	for t := 0; t < n; t++ {
		rt.deques = append(rt.deques, deque{base: m.Mem.AllocWords(dequeWords)})
	}
	m.Kernel.AddDumpHook(rt.dumpState)
	return rt
}

// dumpState writes the runtime's diagnostic state (registered as a
// kernel dump hook): run stats plus the occupancy of every non-empty
// deque, read directly from simulated memory.
func (rt *RT) dumpState(w io.Writer) {
	fmt.Fprintf(w, "wsrt: variant=%s spawns=%d steals=%d/%d nacks=%d done=%d\n",
		rt.Variant, rt.Stats.Spawns, rt.Stats.StealHits, rt.Stats.StealTries,
		rt.Stats.StealNacks, rt.M.Cache.DebugReadWord(rt.doneAddr))
	for t, off := range rt.offlineMark {
		if off {
			fmt.Fprintf(w, "  thread %d: OFFLINE (reclaims so far: %d)\n", t, rt.Stats.Reclaims)
		}
	}
	for t, d := range rt.deques {
		head := rt.M.Cache.DebugReadWord(d.headAddr())
		tail := rt.M.Cache.DebugReadWord(d.tailAddr())
		if head == tail {
			continue
		}
		fmt.Fprintf(w, "  deque %d: %d queued tasks (head=%d tail=%d)\n",
			t, tail-head, head, tail)
	}
}

// NewNative builds a machine-less runtime whose programs execute
// functionally against m (Cilkview-style analysis). Only Analyze may be
// used on it.
func NewNative(m *mem.Memory) *RT {
	rt := &RT{
		nativeMem: m,
		tasks:     make(map[mem.Addr]*taskRec),
		funcs:     make([]FuncInfo, fidFirst),
		Grain:     32,
		Costs:     DefaultCosts(),
	}
	rt.funcs[fidRuntime] = FuncInfo{Name: "runtime", Footprint: 2048}
	return rt
}

// Mem returns the memory that application setup code should allocate
// inputs in: the machine's DRAM, or the bare native memory.
func (rt *RT) Mem() *mem.Memory {
	if rt.M != nil {
		return rt.M.Mem
	}
	return rt.nativeMem
}

// Analyze executes root natively with Cilkview-style DAG accounting
// and returns total work, critical-path span (both in abstract
// instructions), and the number of tasks created.
func (rt *RT) Analyze(root Body) (work, span, tasks uint64) {
	env := prog.NewNativeEnv(rt.Mem())
	rec := &spanRecorder{insts: func() uint64 { return env.Insts }}
	c := &Ctx{rt: rt, env: env, spanRec: rec}
	root(c)
	rec.sync()
	return env.Insts, rec.cur, rec.tasks
}

// RegisterFunc declares an application task function (for instruction
// cache modelling) and returns its fid.
func (rt *RT) RegisterFunc(name string, footprintBytes int) int {
	rt.funcs = append(rt.funcs, FuncInfo{Name: name, Footprint: footprintBytes})
	return len(rt.funcs) - 1
}

func (rt *RT) footprint(fid int) int {
	if fid >= 0 && fid < len(rt.funcs) && rt.funcs[fid].Footprint > 0 {
		return rt.funcs[fid].Footprint
	}
	return 1024
}

// Ctx is a thread's execution context: the paper's "worker thread".
// Task bodies receive it to spawn children, wait, and access simulated
// memory.
type Ctx struct {
	rt *RT
	// env is what task bodies reach through Load/Store/Amo/Compute/Alloc.
	env prog.Env
	// core is the simulated core the runtime drives directly for
	// cache_invalidate/cache_flush, ULI, the instruction-cache context
	// and idle spinning. It is nil in native mode, which executes
	// fork-join structure depth-first with zero cost (analysis).
	core *cpu.Core
	// rng is the thread's deterministic PRNG (victim selection).
	rng *sim.Rand
	tid int
	cur mem.Addr // descriptor of the currently executing task
	// failStreak counts consecutive failed steals for backoff.
	failStreak int
	// spanRec, when set in native mode, performs Cilkview-style
	// work/span accounting.
	spanRec *spanRecorder
}

// spanRecorder tracks the critical path through the fork-join DAG.
type spanRecorder struct {
	insts func() uint64 // live global instruction counter
	last  uint64        // instruction count at the last sync point
	cur   uint64        // span along the current strand
	tasks uint64        // tasks (fork branches) created
}

// sync attributes instructions executed since the last sync to the
// current strand.
func (r *spanRecorder) sync() {
	now := r.insts()
	r.cur += now - r.last
	r.last = now
}

// trace records a scheduler event when a tracer is attached. The clock
// is read only then: reading it drains the core's queued ops, which
// would cost the thread a switch at every spawn and task end.
func (c *Ctx) trace(k trace.Kind, arg uint64) {
	if c.rt.Tracer != nil {
		c.rt.Tracer.Emit(c.core.Now(), c.tid, k, arg)
	}
}

// Convenience memory forwarding.

// Load reads a simulated word.
func (c *Ctx) Load(a mem.Addr) uint64 { return c.env.Load(a) }

// Store writes a simulated word.
func (c *Ctx) Store(a mem.Addr, v uint64) { c.env.Store(a, v) }

// Amo performs a simulated atomic.
func (c *Ctx) Amo(a mem.Addr, op cache.AmoOp, a1, a2 uint64) uint64 {
	return c.env.Amo(a, op, a1, a2)
}

// Compute burns n abstract instructions.
func (c *Ctx) Compute(n int) { c.env.Compute(n) }

// Alloc reserves simulated memory.
func (c *Ctx) Alloc(nwords int) mem.Addr { return c.env.Alloc(nwords) }

// --- task descriptor management ---

// newTask allocates (or recycles) a descriptor and registers the body.
func (c *Ctx) newTask(fid int, body Body) mem.Addr {
	rt := c.rt
	var d mem.Addr
	if fl := rt.free[c.tid]; len(fl) > 0 {
		d = fl[len(fl)-1]
		rt.free[c.tid] = fl[:len(fl)-1]
	} else {
		d = c.env.Alloc(descWords)
	}
	rt.tasks[d] = &taskRec{body: body, fid: fid}
	// Initialize the descriptor (plain stores: the child is not yet
	// visible to anyone).
	c.env.Store(d+descParent*8, uint64(c.cur))
	c.env.Store(d+descRC*8, 0)
	c.env.Store(d+descStolen*8, 0)
	c.env.Store(d+descFID*8, uint64(fid))
	return d
}

// freeTask recycles a completed task's descriptor.
func (c *Ctx) freeTask(d mem.Addr) {
	delete(c.rt.tasks, d)
	c.rt.free[c.tid] = append(c.rt.free[c.tid], d)
}
