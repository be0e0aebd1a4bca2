// Package cpu models the two core types of the big.TINY system (paper
// Table II): tiny cores (single-issue, in-order, single-cycle execute
// for non-memory instructions, blocking memory ops) and big cores
// (4-way out-of-order, approximated by superscalar issue plus partial
// overlap of memory stalls).
//
// Every cycle a core spends is attributed to one of the paper's
// Figure 7 categories (Inst Fetch / Data Load / Data Store / Atomic /
// Flush / Others), which is how the execution-time breakdown is
// regenerated.
package cpu

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
	"bigtiny/internal/uli"
)

// Class is a Figure 7 execution-time category.
type Class int

// Cycle attribution categories (paper Fig. 7 legend).
const (
	ClassInstFetch Class = iota
	ClassLoad
	ClassStore
	ClassAtomic
	ClassFlush
	ClassOther
	NumClasses
)

var classNames = [NumClasses]string{
	"InstFetch", "DataLoad", "DataStore", "Atomic", "Flush", "Others",
}

// String returns the category's display name.
func (c Class) String() string { return classNames[c] }

// Config selects a core variant.
type Config struct {
	// Big selects the out-of-order model.
	Big bool
	// IssueWidth is instructions per cycle for non-memory work
	// (4 for big, 1 for tiny).
	IssueWidth int
	// MemOverlap divides miss stalls beyond the issue latency,
	// approximating out-of-order memory-level parallelism (1 = fully
	// blocking).
	MemOverlap int
	// L1IBytes sizes the (direct-mapped) instruction cache model.
	L1IBytes int
	// ULIEntryLat is the pipeline-drain cost before vectoring to a ULI
	// handler (a few cycles tiny, 10-50 big; paper §VI-C).
	ULIEntryLat sim.Time
}

// TinyConfig returns the paper's tiny-core parameters.
func TinyConfig() Config {
	return Config{IssueWidth: 1, MemOverlap: 1, L1IBytes: 4 * 1024, ULIEntryLat: 4}
}

// BigConfig returns the paper's big-core parameters. The core is
// 4-way out-of-order; the sustained advantage over the in-order tiny
// core is modelled as 3 IPC on non-memory work plus 3-way overlap of
// memory stalls, which reproduces the paper's observed single-big-core
// speedups (O3x1 geomean ~2.6x over the serial in-order baseline,
// Table III) better than assuming a perfect 4x.
func BigConfig() Config {
	return Config{Big: true, IssueWidth: 3, MemOverlap: 3, L1IBytes: 64 * 1024, ULIEntryLat: 30}
}

// Core is one processor. Its methods must be called from the simulated
// thread (sim.Proc) bound to it.
type Core struct {
	ID  int
	Cfg Config
	L1D *cache.L1
	ULI *uli.Unit // nil when the config has no ULI hardware

	// Faults, when non-nil, can turn this core into a straggler by
	// multiplying its compute time, or fail-stop it mid-run (see
	// internal/fault). FaultLane is the core's index among fault
	// candidates (the tiny cores); -1 exempts the core.
	Faults    *fault.Injector
	FaultLane int
	// wentOffline latches the fail-stop transition so it is recorded
	// (and reported) exactly once.
	wentOffline bool

	proc *sim.Proc

	Cycles [NumClasses]uint64
	Insts  uint64

	// Instruction-cache model: a direct-mapped tag array over synthetic
	// per-function code regions.
	iTags   []uint64
	curFunc int
	curPC   uint64 // byte offset within the current function
	curSize uint64 // footprint of the current function
	// fracIssue accumulates sub-cycle issue debt for wide issue.
	fracIssue int

	// Spin's state while its wait chain is out (see spinStep): the
	// instructions left, the chunk size, and the fetch stall the chunk
	// just issued still has to wait out. spinChain is spinStep as a
	// value, made once.
	spinLeft, spinChunk int
	spinStall           sim.Time
	spinChain           func() (sim.Time, bool)

	// sbuf holds completion times of outstanding stores in a fixed
	// inline buffer (sbLen entries live). Even simple in-order cores
	// have a store buffer: stores retire in the background and the core
	// stalls only when the buffer fills. Atomics, flushes, and
	// invalidates act as fences and drain it. Entry order carries no
	// meaning — every consumer treats the buffer as a multiset (filter
	// retired, remove min when full, drain max) — so maintenance never
	// allocates or splices.
	sbuf  [sbDepth]sim.Time
	sbLen int
}

// sbDepth is the store buffer capacity.
const sbDepth = 8

// iBlockBytes is the instruction fetch granularity.
const iBlockBytes = 64

// iMissPenalty is the fetch-miss stall (an L2-side fill; instruction
// fetches are modelled off the data network).
const iMissPenalty = 15

// New creates a core. Bind must be called before use.
func New(id int, cfg Config, l1d *cache.L1, u *uli.Unit) *Core {
	nblocks := cfg.L1IBytes / iBlockBytes
	if nblocks < 1 {
		nblocks = 1
	}
	c := &Core{ID: id, Cfg: cfg, L1D: l1d, ULI: u, FaultLane: -1, iTags: make([]uint64, nblocks)}
	for i := range c.iTags {
		c.iTags[i] = ^uint64(0)
	}
	c.curSize = 1024
	if u != nil {
		u.EntryLat = cfg.ULIEntryLat
	}
	return c
}

// Bind attaches the simulated thread running on this core.
func (c *Core) Bind(p *sim.Proc) {
	c.proc = p
	c.spinChain = c.spinStep
	if c.ULI != nil {
		c.ULI.Bind(p)
	}
}

// Now returns the core's current cycle.
func (c *Core) Now() sim.Time { return c.proc.Now() }

// attribute advances simulated time to done and charges the elapsed
// cycles to class.
func (c *Core) attribute(class Class, done sim.Time) {
	now := c.proc.Now()
	if done > now {
		c.Cycles[class] += uint64(done - now)
		c.proc.WaitUntil(done)
	}
}

// poll gives the ULI unit a delivery opportunity (an interruptible
// instruction boundary).
func (c *Core) poll() {
	if c.ULI != nil {
		before := c.proc.Now()
		c.ULI.Poll(c.proc)
		if after := c.proc.Now(); after > before {
			// Handler entry/response time not charged inside the handler
			// body lands in Others.
			c.Cycles[ClassOther] += uint64(after - before)
		}
	}
}

// idleChunk bounds how long IdleUntil sleeps between interrupt polls.
const idleChunk = 64

// IdleUntil advances the core to cycle t (a no-op when t has passed),
// attributing the wait to Others. The sleep is chopped into short
// chunks with a ULI poll at every boundary, so a core idling between
// open-system arrivals still services incoming steal requests promptly
// — a monolithic sleep would hold DTS thieves hostage for its whole
// duration. Handler time spent inside a poll counts toward t.
func (c *Core) IdleUntil(t sim.Time) {
	for {
		c.poll()
		now := c.proc.Now()
		if now >= t {
			return
		}
		next := now + idleChunk
		if next > t {
			next = t
		}
		c.attribute(ClassOther, next)
	}
}

// Offline reports whether this core has fail-stopped (fault scenario
// core offlining). The first true result latches the transition and
// records the injection. The runtime checks it at scheduling-loop
// boundaries and, on true, abandons the core forever; survivors reclaim
// its queued work.
func (c *Core) Offline() bool {
	if c.wentOffline {
		return true
	}
	if c.Faults.CoreOffline(c.FaultLane, c.proc.Now()) {
		c.wentOffline = true
		c.Faults.Fired(fault.CoreOffline)
		return true
	}
	return false
}

// SetFunc declares that subsequent Compute instructions belong to the
// function fid, whose synthetic code footprint is footprintBytes.
// Used by the runtime when switching between runtime code and task
// bodies, so the instruction-cache model sees realistic code reuse.
func (c *Core) SetFunc(fid int, footprintBytes int) {
	if footprintBytes < iBlockBytes {
		footprintBytes = iBlockBytes
	}
	if fid != c.curFunc {
		c.curFunc = fid
		c.curPC = 0
	}
	c.curSize = uint64(footprintBytes)
}

// Compute executes n non-memory instructions.
func (c *Core) Compute(n int) {
	if n <= 0 {
		return
	}
	c.poll()
	cycles, fetchStall := c.issue(n)
	c.attribute(ClassOther, c.proc.Now()+cycles)
	if fetchStall > 0 {
		c.attribute(ClassInstFetch, c.proc.Now()+fetchStall)
	}
}

// issue retires n non-memory instructions on the books — instruction
// count, issue debt, straggler draw, I-cache walk — and returns the
// issue cycles and the fetch stall the caller has to wait out.
func (c *Core) issue(n int) (sim.Time, sim.Time) {
	c.Insts += uint64(n)
	// Issue: IssueWidth instructions per cycle, with sub-cycle debt
	// carried across calls.
	total := n + c.fracIssue
	cycles := total / c.Cfg.IssueWidth
	c.fracIssue = total % c.Cfg.IssueWidth
	// A straggler core issues the same instructions more slowly.
	if extra := c.Faults.CPUStall(c.FaultLane, cycles); extra > 0 {
		cycles += extra
	}
	// Instruction fetch: walk the PC through the function's code
	// region, checking the I-cache at every block boundary.
	fetchStall := sim.Time(0)
	// Functions live ~1MB apart with a 37-block skew so that distinct
	// functions land at staggered direct-mapped sets instead of
	// systematically aliasing.
	base := uint64(c.curFunc) * (1<<20 + 37*iBlockBytes)
	pc, size := c.curPC, c.curSize
	// The tag array is a power of two (64 or 1024 entries) and the PC
	// normally sits inside a footprint of at least one block, so the set
	// index is a mask and the wrap one compare-subtract; the divisions
	// stay for any other case (SetFunc can shrink the footprint under a
	// live PC).
	mask := len(c.iTags) - 1
	pow2 := len(c.iTags)&mask == 0
	inside := pc < size && size >= iBlockBytes
	for i := 0; i < n; i += iBlockBytes / 4 {
		blk := (base + pc) / iBlockBytes
		idx := int(blk) & mask
		if !pow2 {
			idx = int(blk) % len(c.iTags)
		}
		if c.iTags[idx] != blk {
			c.iTags[idx] = blk
			fetchStall += iMissPenalty
		}
		if pc += iBlockBytes; !inside {
			pc %= size
		} else if pc >= size {
			pc -= size
		}
	}
	c.curPC = pc
	return sim.Time(cycles), fetchStall
}

// Spin executes n non-memory instructions in chunks of at most chunk,
// with an interrupt poll at every chunk boundary: it is exactly
//
//	for ; n > 0; n -= chunk {
//		c.Compute(min(n, chunk))
//	}
//
// but the chunks between two polls that have something to do cost no
// switch to this core's thread: their waits form a sim.Proc.WaitChain,
// which the kernel walks through spinStep.
func (c *Core) Spin(n, chunk int) {
	for n > 0 {
		c.poll()
		c.spinLeft, c.spinChunk = n, chunk
		c.proc.WaitChain(c.issueSpin(), c.spinChain)
		n = c.spinLeft
	}
}

// issueSpin issues Spin's next chunk — Compute after its poll — and
// returns when the chunk's issue cycles end.
func (c *Core) issueSpin() sim.Time {
	m := min(c.spinLeft, c.spinChunk)
	c.spinLeft -= m
	cycles, stall := c.issue(m)
	c.spinStall = stall
	c.Cycles[ClassOther] += uint64(cycles)
	return c.proc.Now() + cycles
}

// spinStep is Spin's chain step, called when one of its waits ends: wait
// out the chunk's fetch stall if it has one, then issue the next chunk
// — unless the spin is over or the chunk boundary's poll would do
// something, which ends the chain so the thread itself takes the
// interrupt.
func (c *Core) spinStep() (sim.Time, bool) {
	if stall := c.spinStall; stall > 0 {
		c.spinStall = 0
		c.Cycles[ClassInstFetch] += uint64(stall)
		return c.proc.Now() + stall, true
	}
	if c.spinLeft <= 0 || (c.ULI != nil && !c.ULI.PollIdle()) {
		return 0, false
	}
	return c.issueSpin(), true
}

// shorten approximates out-of-order overlap: stalls beyond the issue
// latency are divided by MemOverlap.
func (c *Core) shorten(start, done sim.Time) sim.Time {
	if c.Cfg.MemOverlap <= 1 || done <= start {
		return done
	}
	const issueLat = 2
	lat := done - start
	if lat <= issueLat {
		return done
	}
	return start + issueLat + (lat-issueLat)/sim.Time(c.Cfg.MemOverlap)
}

// Load performs a timed load.
func (c *Core) Load(a mem.Addr) uint64 {
	c.poll()
	c.Insts++
	now := c.proc.Now()
	v, done := c.L1D.Load(now, a)
	c.attribute(ClassLoad, c.shorten(now, done))
	return v
}

// Store performs a timed store. The store issues in one cycle and
// retires in the background through the store buffer; the core stalls
// only when the buffer is full (waiting for the oldest store).
func (c *Core) Store(a mem.Addr, v uint64) {
	c.poll()
	c.Insts++
	now := c.proc.Now()
	done := c.L1D.Store(now, a, v)
	// Retire stores that completed.
	n := 0
	for i := 0; i < c.sbLen; i++ {
		if c.sbuf[i] > now {
			c.sbuf[n] = c.sbuf[i]
			n++
		}
	}
	c.sbLen = n
	stallUntil := now + 1
	if c.sbLen >= sbDepth {
		// Full: wait for the oldest outstanding store.
		oldest := 0
		for i := 1; i < c.sbLen; i++ {
			if c.sbuf[i] < c.sbuf[oldest] {
				oldest = i
			}
		}
		if c.sbuf[oldest] > stallUntil {
			stallUntil = c.sbuf[oldest]
		}
		c.sbLen--
		c.sbuf[oldest] = c.sbuf[c.sbLen]
	}
	if done > now+1 {
		c.sbuf[c.sbLen] = done
		c.sbLen++
	}
	c.attribute(ClassStore, stallUntil)
}

// drainStores waits for every outstanding store (fence semantics),
// charging the wait to class.
func (c *Core) drainStores(class Class) {
	done := c.proc.Now()
	for i := 0; i < c.sbLen; i++ {
		if c.sbuf[i] > done {
			done = c.sbuf[i]
		}
	}
	c.sbLen = 0
	c.attribute(class, done)
}

// Amo performs a timed atomic and returns the old value. Atomics
// serialize even on the big core (no overlap) and fence the store
// buffer.
func (c *Core) Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64 {
	c.poll()
	c.Insts++
	c.drainStores(ClassAtomic)
	now := c.proc.Now()
	old, done := c.L1D.Amo(now, a, op, arg1, arg2)
	c.attribute(ClassAtomic, done)
	return old
}

// Invalidate executes cache_invalidate (flash; cheap — charged to
// Others since the cost is in the later misses, not the operation).
func (c *Core) Invalidate() {
	c.poll()
	c.Insts++
	c.drainStores(ClassOther)
	done := c.L1D.Invalidate(c.proc.Now())
	c.attribute(ClassOther, done)
}

// Flush executes cache_flush (a fence: waits for all dirty data to
// reach the shared cache).
func (c *Core) Flush() {
	c.poll()
	c.Insts++
	c.drainStores(ClassFlush)
	done := c.L1D.Flush(c.proc.Now())
	c.attribute(ClassFlush, done)
}

// ULIEnable enables user-level interrupts (1 cycle).
func (c *Core) ULIEnable() {
	c.Insts++
	c.ULI.Enable()
	c.attribute(ClassOther, c.proc.Now()+1)
	c.poll() // a buffered request can deliver as soon as we re-enable
}

// ULIDisable disables user-level interrupts (1 cycle).
func (c *Core) ULIDisable() {
	c.Insts++
	c.ULI.Disable()
	c.attribute(ClassOther, c.proc.Now()+1)
}

// ULISendReq sends a steal request and blocks for the response.
func (c *Core) ULISendReq(victim int) (payload uint64, ok bool) {
	c.Insts++
	before := c.proc.Now()
	payload, ok = c.ULI.SendReq(c.proc, victim)
	c.Cycles[ClassOther] += uint64(c.proc.Now() - before)
	return payload, ok
}

// TotalCycles sums all attributed cycles.
func (c *Core) TotalCycles() uint64 {
	var s uint64
	for _, v := range c.Cycles {
		s += v
	}
	return s
}
