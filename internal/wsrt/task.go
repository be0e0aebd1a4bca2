// Package wsrt is the paper's primary contribution: a TBB/Cilk-style
// work-stealing runtime that runs on hardware-coherent, heterogeneous
// cache-coherent (HCC), and direct-task-stealing (DTS) machines. The
// three spawn/wait engines follow paper Figure 3(a), 3(b) and 3(c)
// line by line.
//
// Task descriptors, task queues (deques), and all data shared between
// parent and child tasks live in *simulated* memory and are accessed
// through prog.Env, and the runtime issues cache_invalidate and
// cache_flush on the thread's core, so every invalidate, flush, and AMO
// the pseudocode performs has its real coherence cost — and omitting
// one produces genuinely wrong answers on the software-centric
// protocols.
package wsrt

import (
	"fmt"

	"bigtiny/internal/mem"
)

// Descriptor layout (words). Every task has a 4-word descriptor in
// simulated memory. Arguments and results are the application's
// business (they allocate their own simulated words and close over the
// addresses).
const (
	descParent = 0 // parent descriptor address (0 = root)
	descRC     = 1 // reference count: unfinished children
	descStolen = 2 // has_stolen_child flag (DTS optimization, §IV-C)
	descFID    = 3 // function id (instruction-cache modelling)
	descWords  = 4
)

// Body is a task's execution body. Cross-task data must flow through
// simulated memory (c.Load/c.Store), never through captured Go
// variables that another task mutates.
//
// A body's Compute and Store are queued on its core and issue later, at
// the cycles they would have had (see prog.Env), so the body runs ahead
// of its own ops until it next needs a value. Go state shared with other
// cores is therefore read or written only after a Load, an Amo or Now,
// never straight after a Compute or Store; the runtime keeps the same
// rule for its counters, its quarantine table and offlineMark, and
// reads the clock for a trace event only when a tracer is attached.
type Body func(c *Ctx)

// taskRec is the Go-side record for a live task descriptor.
type taskRec struct {
	body Body
	fid  int
	// crossCore marks a task that sits in this core's own deque but was
	// produced on another core (salvaged from a stale steal ACK): a
	// local pop must still execute it with the stolen-task coherence
	// discipline (invalidate before, flush after, AMO join).
	crossCore bool
}

// FuncInfo describes a registered task function for the I-cache model.
type FuncInfo struct {
	Name      string
	Footprint int // synthetic code bytes
}

// RunStats aggregates runtime-level events across all threads.
type RunStats struct {
	Spawns     uint64
	LocalExecs uint64
	StolenExec uint64
	StealTries uint64
	StealHits  uint64
	StealNacks uint64 // DTS only

	// Recovery events (lossy fault scenarios only).
	OfflineCores   uint64 // cores that fail-stopped mid-run
	Reclaims       uint64 // stranded tasks taken from dead cores
	Salvages       uint64 // tasks recovered from stale steal ACKs
	DegradedCycles uint64 // cycles from the first core loss to the end of the run
}

// String formats the stats compactly.
func (s RunStats) String() string {
	out := fmt.Sprintf("spawns=%d local=%d stolen=%d tries=%d hits=%d nacks=%d",
		s.Spawns, s.LocalExecs, s.StolenExec, s.StealTries, s.StealHits, s.StealNacks)
	if s.OfflineCores > 0 || s.Reclaims > 0 || s.Salvages > 0 {
		out += fmt.Sprintf(" offline=%d reclaims=%d salvages=%d degraded-cycles=%d",
			s.OfflineCores, s.Reclaims, s.Salvages, s.DegradedCycles)
	}
	return out
}

// dequeCapacity is the per-thread task queue capacity (entries).
const dequeCapacity = 8192

// deque describes one thread's task queue in simulated memory. The
// lock, head, and tail each get their own cache line: the lock is
// contended by lock AMOs, the head by stealers, and the tail by the
// owner — co-locating them would make every thief probe and every
// owner push/pop exchange the same line (false sharing), which on MESI
// turns the idle-thief probing of a busy victim into an invalidation
// storm.
//
//	line 0: lock (0 free / 1 held)      — unused by the DTS variant
//	line 1: head (monotonic; steals pop here, FIFO)
//	line 2: tail (monotonic; owner pushes/pops here, LIFO)
//	line 3+: circular buffer of task descriptor addresses
type deque struct {
	base mem.Addr
}

// dequeWords is the simulated-memory footprint of one deque in words.
const dequeWords = 3*(mem.LineSize/8) + dequeCapacity

func (d deque) lockAddr() mem.Addr { return d.base }
func (d deque) headAddr() mem.Addr { return d.base + mem.LineSize }
func (d deque) tailAddr() mem.Addr { return d.base + 2*mem.LineSize }
func (d deque) slotAddr(i uint64) mem.Addr {
	return d.base + 3*mem.LineSize + mem.Addr(i%dequeCapacity)*8
}
