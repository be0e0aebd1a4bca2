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
//
// The thread hands the core its ops in program order. An op that
// returns nothing and reads no clock (all but Load, Load2, Amo, SetFunc
// and IdleUntil) is queued and the thread runs on; every other op joins
// the queue and drains it, and a proc body drains before it returns
// (Drain). A scheduling loop run by Drive posts value ops too, and reads
// their values at its next step. Draining issues each queued op at the
// cycle, and at the place in the event order, its blocking call would
// have — through one sim.Proc.WaitChain whose steps the kernel walks —
// so the queue changes how often the thread is switched to, never what
// the machine does. That holds while the
// thread reads no state another core or the kernel writes between a
// queued op and the next drain. A Core is what a wsrt task body's ops
// go to; wsrt.Body and wsrt's env interface state the rules.
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

	// The op queue: a ring of qLen ops from q[qHead] (q is the last
	// field, after the hot scalars), drained through the wait chain
	// c.next (as a value, made by the core's first Bind and kept by
	// Reset). direct issues every op on the spot
	// instead: set for good under KernelParanoid, and while a ULI handler
	// or hook runs, whose ops go to the machine ahead of the ops it
	// interrupted. val[0] is what the last Load or Amo returned, val[1]
	// what Load2 or Copy keeps for its second op (kept across a poll);
	// a ULI send leaves its payload in val[1] and 1 for an ACK in val[0].
	// loop is what Drive runs a step of whenever the queue runs dry.
	qHead, qLen int
	chain       func() (sim.Time, bool)
	loop        Loop
	direct      bool
	val         [2]uint64

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

	q [2 * queueCap]op
}

// queueCap bounds the op queue. A full queue drains before it takes the
// next op, which is exact, so the cap only trades switches for memory.
// The ring is twice as long (a power of two, wrapped by mask), so a
// direct op always finds a slot past the queued ones.
const queueCap = 16

// opKind names a core op.
type opKind uint8

const (
	opCompute opKind = iota // Compute and Spin
	opLoad
	opStore
	opAmo
	opInvalidate
	opFlush
	opSetFunc
	opULIEnable
	opULIDisable
	opIdle    // IdleUntil
	opULISend // ULISendQueued
)

// op is one core op and how far it has got: phase counts the steps its
// issue function has taken, and the rest are its operands and the state
// it carries between its waits, packed into 40 bytes:
//
//	Compute:   n instructions left, v the chunk, w the fetch stall to wait out
//	Load:      a, n the val register to load into
//	Store:     a, v the value, n 1 to store val[1] instead
//	Amo:       a, n the cache.AmoOp, v and w its operands
//	SetFunc:   n the function id, v the footprint
//	IdleUntil: w the cycle to wake at
//	ULISend:   n the victim, w the cycle the request went out
type op struct {
	kind  opKind
	phase uint8
	n     int
	a     mem.Addr
	v, w  uint64
}

// sbDepth is the store buffer capacity.
const sbDepth = 8

// iBlockBytes is the instruction fetch granularity.
const iBlockBytes = 64

// iMissPenalty is the fetch-miss stall (an L2-side fill; instruction
// fetches are modelled off the data network).
const iMissPenalty = 15

// New creates a core. Bind must be called before use. Under
// sim.KernelParanoid the core never queues an op.
func New(id int, cfg Config, l1d *cache.L1, u *uli.Unit) *Core {
	nblocks := cfg.L1IBytes / iBlockBytes
	if nblocks < 1 {
		nblocks = 1
	}
	c := &Core{ID: id, Cfg: cfg, L1D: l1d, ULI: u, FaultLane: -1, iTags: make([]uint64, nblocks)}
	c.Reset()
	if u != nil {
		u.EntryLat = cfg.ULIEntryLat
	}
	return c
}

// Reset returns the core to the state New leaves it in, unbound, with
// empty counters, I-cache and op queue. Its wiring stays: ID, Cfg, the
// L1 and ULI unit (each reset by its owner), Faults, FaultLane and the
// drain's chain.
func (c *Core) Reset() {
	id, cfg, l1d, u, faults, lane, tags, chain := c.ID, c.Cfg, c.L1D, c.ULI, c.Faults, c.FaultLane, c.iTags, c.chain
	// Cleared in place: a Core literal would be built aside and copied.
	*c = Core{}
	c.ID, c.Cfg, c.L1D, c.ULI, c.Faults, c.FaultLane, c.iTags, c.chain = id, cfg, l1d, u, faults, lane, tags, chain
	c.curSize, c.direct = 1024, sim.KernelParanoid
	tags[0] = ^uint64(0)
	for n := 1; n < len(tags); n *= 2 {
		copy(tags[n:], tags[:n])
	}
}

// Bind attaches the simulated thread running on this core.
func (c *Core) Bind(p *sim.Proc) {
	c.proc = p
	if c.chain == nil {
		c.chain = c.next
	}
	if c.ULI != nil {
		c.ULI.Bind(p)
	}
}

// Now returns the core's current cycle, once every queued op has issued.
// With the queue empty, as in every step Drive runs, it drains nothing.
func (c *Core) Now() sim.Time {
	if c.qLen > 0 {
		c.Drain()
	}
	return c.proc.Now()
}

// post hands the core an op (its fields, see op): queued at the tail,
// draining a full queue first. A direct core issues it on the spot from
// the tail slot, past any queued ops, and frees the slot again (a
// handler's op nests inside the op it interrupts under KernelParanoid,
// so two slots at most). The op is written field by field: an op value built and copied in
// would be read back in wide loads across its narrow stores, each a
// store-forwarding stall.
func (c *Core) post(kind opKind, n int, a mem.Addr, v, w uint64) {
	if c.qLen >= queueCap && !c.direct {
		c.Drain()
	}
	o := &c.q[(c.qHead+c.qLen)&(len(c.q)-1)]
	o.kind, o.phase, o.n, o.a, o.v, o.w = kind, 0, n, a, v, w
	c.qLen++
	if c.direct {
		c.exec(o)
		c.qLen--
	}
}

// call is a blocking op: post, then drain.
func (c *Core) call(kind opKind, n int, a mem.Addr, v, w uint64) {
	c.post(kind, n, a, v, w)
	c.Drain()
}

// A Loop is a scheduling loop as a step machine (see Drive). It is an
// interface, not a func, so that a thread hands its loop over without
// allocating a closure.
type Loop interface {
	// Step runs one step; false ends the loop.
	Step() bool
}

// Drive runs l: l.Step is called each time the op queue runs dry, posts
// the next ops, reads what earlier ones returned from Val and Val2, and
// reports false to end the loop (its ops still issue). Queued, the steps run inside the drain's wait chain,
// on whichever stack walks it, at the dispatch position where the thread
// would have run that Go code; the thread is switched to only for a poll
// that has something to deliver, and when the loop ends. So a step never
// drains, blocks or waits: it reads the clock with Now, which drains
// nothing on its empty queue, and posts at most a few ops. Direct, the
// steps run on the thread and each op blocks.
func (c *Core) Drive(l Loop) {
	if c.direct {
		for l.Step() {
		}
		return
	}
	c.loop = l
	c.Drain()
}

// Drain issues every queued op and returns when the last one is over.
// A thread's body must drain before it returns (machine.Spawn does);
// each op that returns a value or reads the clock drains by itself.
// The thread itself takes every interrupt boundary that has something
// to deliver; the ops between two such boundaries cost it no switch.
func (c *Core) Drain() {
	if c.direct {
		return
	}
	for {
		if t, ok := c.next(); ok && c.qLen == 0 && c.loop == nil {
			c.proc.WaitUntil(t) // the last op's last wait: nothing to chain
		} else if ok {
			c.proc.WaitChain(t, c.chain)
		} else if c.qLen == 0 {
			return
		} else {
			c.poll()
			c.q[c.qHead].phase++
		}
	}
}

// next is the drain's chain step: it issues the queue's next piece of
// work and returns when the wait it implies ends, first running Drive's
// loop steps for as long as the queue is empty. It reports false when
// the queue is empty with no loop left, or its head op stands at an
// interrupt boundary with something to deliver, which only the thread
// may take.
func (c *Core) next() (sim.Time, bool) {
	for c.qLen == 0 {
		if c.loop == nil {
			return 0, false
		}
		if !c.loop.Step() {
			c.loop = nil
		}
	}
	t, st := c.step(&c.q[c.qHead])
	switch st {
	case stepPoll:
		return 0, false
	case stepDone:
		c.qHead = (c.qHead + 1) & (len(c.q) - 1)
		c.qLen--
	}
	return t, true
}

// exec issues o on the spot, waiting out each of its waits in turn:
// blocking issue, which is how a direct core issues every op.
func (c *Core) exec(o *op) {
	for {
		t, st := c.step(o)
		if st == stepPoll {
			c.poll()
			o.phase++
			continue
		}
		c.proc.WaitUntil(t)
		if st == stepDone {
			return
		}
	}
}

// stepState is what one step of an op asks for.
type stepState uint8

const (
	stepWait stepState = iota // wait until t, then step the op again
	stepDone                  // wait until t; the op is over
	stepPoll                  // run the real poll, then step past it
)

// pollDue reports whether an interrupt boundary here has something to
// deliver (see uli.Unit.PollIdle); skipping an idle one is exact.
func (c *Core) pollDue() bool { return c.ULI != nil && !c.ULI.PollIdle() }

// step takes o's next step: every op's issue logic, written once. Phase
// 0 of an op that polls is its interrupt boundary; the step after it
// (phase 1) issues. A step never waits: it returns the cycle its wait
// ends.
func (c *Core) step(o *op) (sim.Time, stepState) {
	now := c.proc.Now()
	switch o.kind {
	case opCompute:
		switch o.phase {
		case 0:
			if c.pollDue() {
				return 0, stepPoll
			}
			fallthrough
		case 1: // the chunk's issue cycles
			m := min(o.n, int(o.v))
			o.n -= m
			cycles, stall := c.issue(m)
			c.Cycles[ClassOther] += uint64(cycles)
			if stall > 0 {
				o.w, o.phase = uint64(stall), 2
				return now + cycles, stepWait
			}
			o.phase = 0
			return now + cycles, o.chunkDone()
		}
		// The chunk's fetch stall, then the next chunk's boundary.
		stall := sim.Time(o.w)
		c.Cycles[ClassInstFetch] += uint64(stall)
		o.phase = 0
		return now + stall, o.chunkDone()
	case opIdle:
		if o.phase == 0 && c.pollDue() {
			return 0, stepPoll
		}
		wake := sim.Time(o.w)
		if now >= wake {
			return now, stepDone
		}
		o.phase = 0
		return c.charge(ClassOther, min(now+idleChunk, wake)), stepWait
	case opSetFunc:
		c.setFunc(o.n, int(o.v))
		return now, stepDone
	case opULIEnable:
		switch o.phase {
		case 0:
			c.Insts++
			c.ULI.Enable()
			o.phase = 1
			return c.charge(ClassOther, now+1), stepWait
		case 1: // a buffered request can deliver as soon as we re-enable
			if c.pollDue() {
				return 0, stepPoll
			}
		}
		return now, stepDone
	case opULIDisable:
		c.Insts++
		c.ULI.Disable()
		return c.charge(ClassOther, now+1), stepDone
	case opULISend: // no interrupt boundary: the queue ahead had theirs
		if o.phase == 0 {
			c.Insts++
			o.w, o.phase = uint64(now), 1
			c.ULI.Send(o.n)
			return sim.Forever, stepWait // parked until the response
		}
		payload, ok := c.ULI.Finish()
		c.val[1], c.val[0] = payload, 0
		if ok {
			c.val[0] = 1
		}
		c.Cycles[ClassOther] += uint64(now) - o.w
		return now, stepDone
	}
	// The memory ops: an interrupt boundary, then the op; the fences
	// wait for the store buffer first.
	switch o.phase {
	case 0:
		if c.pollDue() {
			return 0, stepPoll
		}
		fallthrough
	case 1:
		c.Insts++
		switch o.kind {
		case opLoad:
			var done sim.Time
			c.val[o.n], done = c.L1D.Load(now, o.a)
			return c.charge(ClassLoad, c.shorten(now, done)), stepDone
		case opStore:
			v := o.v
			if o.n != 0 {
				v = c.val[1]
			}
			return c.store(now, o.a, v), stepDone
		}
		// A fence waits for the store buffer, when it holds a store still
		// in flight.
		o.phase = 2
		if t := c.drainStores(fenceClass[o.kind]); t > now {
			return t, stepWait
		}
	}
	var done sim.Time
	switch o.kind {
	case opAmo:
		c.val[0], done = c.L1D.Amo(now, o.a, cache.AmoOp(o.n), o.v, o.w)
	case opInvalidate:
		done = c.L1D.Invalidate(now)
	case opFlush:
		done = c.L1D.Flush(now)
	}
	return c.charge(fenceClass[o.kind], done), stepDone
}

// chunkDone reports whether a Compute op's last chunk has issued.
func (o *op) chunkDone() stepState {
	if o.n > 0 {
		return stepWait
	}
	return stepDone
}

// fenceClass is where a fence op charges its store-buffer drain and
// itself: cache_invalidate is cheap, its cost is in the later misses.
var fenceClass = [...]Class{opAmo: ClassAtomic, opInvalidate: ClassOther, opFlush: ClassFlush}

// charge attributes the cycles from now to done to class and returns
// done: the wait a blocking op would take.
func (c *Core) charge(class Class, done sim.Time) sim.Time {
	if now := c.proc.Now(); done > now {
		c.Cycles[class] += uint64(done - now)
	}
	return done
}

// poll gives the ULI unit a delivery opportunity (an interruptible
// instruction boundary). The handler and the salvage and restitute
// hooks it may run issue their ops directly.
func (c *Core) poll() {
	if c.ULI != nil {
		before := c.proc.Now()
		direct, kept := c.direct, c.val[1]
		c.direct = true
		c.ULI.Poll(c.proc)
		c.direct, c.val[1] = direct, kept
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
// duration. Handler time spent inside a poll counts toward t. Like
// Spin, the chunks between two polls that deliver something cost no
// switch to the thread.
func (c *Core) IdleUntil(t sim.Time) { c.call(opIdle, 0, 0, 0, uint64(t)) }

// Offline reports whether this core has fail-stopped (fault scenario
// core offlining). The first true result latches the transition and
// records the injection. The runtime checks it at scheduling-loop
// boundaries and, on true, abandons the core forever; survivors reclaim
// its queued work. Only a lane that can go reads the clock (a drain).
func (c *Core) Offline() bool {
	if c.wentOffline {
		return true
	}
	if c.Faults.CanOffline(c.FaultLane) && c.Faults.CoreOffline(c.FaultLane, c.Now()) {
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
	c.call(opSetFunc, fid, 0, uint64(footprintBytes), 0)
}

func (c *Core) setFunc(fid int, footprintBytes int) {
	if footprintBytes < iBlockBytes {
		footprintBytes = iBlockBytes
	}
	if fid != c.curFunc {
		c.curFunc = fid
		c.curPC = 0
	}
	c.curSize = uint64(footprintBytes)
}

// Compute executes n non-memory instructions. It is queued.
func (c *Core) Compute(n int) {
	if n > 0 {
		c.post(opCompute, n, 0, uint64(n), 0)
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
// It is queued; the chunks between two polls that have something to do
// cost no switch to this core's thread.
func (c *Core) Spin(n, chunk int) {
	if n > 0 {
		c.post(opCompute, n, 0, uint64(chunk), 0)
	}
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
	c.call(opLoad, 0, a, 0, 0)
	return c.val[0]
}

// Load2 performs a timed load of a, then one of b, and returns both
// values: Load(a), Load(b) with one drain for the two.
func (c *Core) Load2(a, b mem.Addr) (uint64, uint64) {
	c.Load2Queued(a, b)
	c.Drain()
	return c.Val2()
}

// LoadQueued is Load, queued: the value is Val once it has issued.
func (c *Core) LoadQueued(a mem.Addr) { c.post(opLoad, 0, a, 0, 0) }

// Load2Queued is Load2, queued: the values are Val2 once both have
// issued.
func (c *Core) Load2Queued(a, b mem.Addr) {
	c.post(opLoad, 1, a, 0, 0)
	c.post(opLoad, 0, b, 0, 0)
}

// Val returns what the last Load or Amo loaded, once it has issued.
func (c *Core) Val() uint64 { return c.val[0] }

// Val2 returns Load2Queued's two values, or a ULI send's payload and 1
// for an ACK (0 for a NACK), once the ops have issued.
func (c *Core) Val2() (uint64, uint64) { return c.val[1], c.val[0] }

// Copy stores the word at src to dst: Store(dst, Load(src)), queued.
func (c *Core) Copy(dst, src mem.Addr) {
	c.post(opLoad, 1, src, 0, 0)
	c.post(opStore, 1, dst, 0, 0)
}

// Store performs a timed store. It is queued. The store issues in one
// cycle and retires in the background through the store buffer; the
// core stalls only when the buffer is full (waiting for the oldest
// store).
func (c *Core) Store(a mem.Addr, v uint64) { c.post(opStore, 0, a, v, 0) }

// store issues a store at now and returns when the core may go on.
func (c *Core) store(now sim.Time, a mem.Addr, v uint64) sim.Time {
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
	return c.charge(ClassStore, stallUntil)
}

// drainStores empties the store buffer (fence semantics), charging the
// wait for its last store to class, and returns when that store is done.
func (c *Core) drainStores(class Class) sim.Time {
	done := c.proc.Now()
	for i := 0; i < c.sbLen; i++ {
		if c.sbuf[i] > done {
			done = c.sbuf[i]
		}
	}
	c.sbLen = 0
	return c.charge(class, done)
}

// Amo performs a timed atomic and returns the old value. Atomics
// serialize even on the big core (no overlap) and fence the store
// buffer.
func (c *Core) Amo(a mem.Addr, amo cache.AmoOp, arg1, arg2 uint64) uint64 {
	c.call(opAmo, int(amo), a, arg1, arg2)
	return c.val[0]
}

// AmoQueued is Amo, queued: the old value is Val once it has issued.
func (c *Core) AmoQueued(a mem.Addr, amo cache.AmoOp, arg1, arg2 uint64) {
	c.post(opAmo, int(amo), a, arg1, arg2)
}

// Invalidate executes cache_invalidate (flash; cheap — charged to
// Others since the cost is in the later misses, not the operation).
func (c *Core) Invalidate() { c.post(opInvalidate, 0, 0, 0, 0) }

// Flush executes cache_flush (a fence: waits for all dirty data to
// reach the shared cache).
func (c *Core) Flush() { c.post(opFlush, 0, 0, 0, 0) }

// ULIEnable enables user-level interrupts (1 cycle).
func (c *Core) ULIEnable() { c.post(opULIEnable, 0, 0, 0, 0) }

// ULIDisable disables user-level interrupts (1 cycle).
func (c *Core) ULIDisable() { c.post(opULIDisable, 0, 0, 0, 0) }

// ULISendQueued sends a steal request to victim once the ops ahead of
// it have issued, and waits for the response or the timeout, parked (see
// uli.Unit.Send): the wait is charged to Others, and Val2 is the
// payload and whether it was an ACK. It is queued.
func (c *Core) ULISendQueued(victim int) { c.post(opULISend, victim, 0, 0, 0) }
