// Package prog defines the environment that task bodies are written
// against: timed loads, stores and atomics, abstract compute
// instructions, and heap allocation in simulated memory.
//
// Two implementations exist: SimEnv runs on a simulated core with full
// timing and coherence behaviour, and NativeEnv executes functionally
// at zero cost (used for the Cilkview-style work/span analysis). The
// runtime's own machinery — cache_invalidate/cache_flush, ULI, the
// instruction-cache context, idle spinning — is not part of Env: the
// work-stealing runtime drives the simulated core for those directly,
// and native execution never reaches them.
package prog

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/mem"
)

// Env is what a task body can do. All application and runtime data that
// crosses task boundaries must live in simulated memory and be accessed
// through it — that is what makes coherence behaviour (and its bugs)
// real.
//
// On a simulated core, Compute and Store return before they issue: the
// core queues them and issues them, in order and at the cycles they
// would have had, when the thread next needs a value (Load, Amo) or the
// clock. So between a Compute or Store and the next op that returns
// something, the caller may touch only its own Go state. Go state that
// another core or the kernel reads or writes (a runtime table, a
// counter an observer samples mid-run) is read or written only after an
// op that drains: a Load, an Amo, or cpu.Core.Now. A ULI handler and
// the runtime's salvage and restitute hooks run ahead of the ops they
// interrupt; their own ops issue at once.
type Env interface {
	// Compute executes n abstract non-memory instructions.
	Compute(n int)
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64
	// Alloc reserves n words of simulated memory (the software heap).
	Alloc(nwords int) mem.Addr
}

// SimEnv is the Env for one hardware thread of a simulated machine.
type SimEnv struct {
	Core *cpu.Core
	Mem  *mem.Memory
}

// NewSimEnv builds the environment for a core whose heap is m. Call
// from inside the core's Spawned body.
func NewSimEnv(core *cpu.Core, m *mem.Memory) *SimEnv {
	return &SimEnv{Core: core, Mem: m}
}

// Compute burns n abstract instructions on the core (queued).
func (e *SimEnv) Compute(n int) { e.Core.Compute(n) }

// Load issues a timed load.
func (e *SimEnv) Load(a mem.Addr) uint64 { return e.Core.Load(a) }

// Store issues a timed store (queued).
func (e *SimEnv) Store(a mem.Addr, v uint64) { e.Core.Store(a, v) }

// Amo issues a timed atomic.
func (e *SimEnv) Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64 {
	return e.Core.Amo(a, op, arg1, arg2)
}

// Alloc reserves simulated heap memory. The bump allocation itself is a
// few instructions; cold-miss costs are paid on first touch like any
// other memory. The bump pointer is machine-wide, so the instructions
// issue before it moves.
func (e *SimEnv) Alloc(nwords int) mem.Addr {
	e.Core.Compute(4)
	e.Core.Drain()
	return e.Mem.AllocWords(nwords)
}

// NativeEnv executes functionally against a bare memory with zero
// simulated time. It also counts abstract instructions, which the
// Cilkview-style analyzer uses for work/span accounting.
type NativeEnv struct {
	Mem *mem.Memory
	// Insts counts abstract instructions (compute + 1 per memory op).
	Insts uint64
}

// NewNativeEnv returns a fresh zero-time environment.
func NewNativeEnv(m *mem.Memory) *NativeEnv { return &NativeEnv{Mem: m} }

// Compute counts n instructions.
func (e *NativeEnv) Compute(n int) { e.Insts += uint64(n) }

// Load reads directly from backing memory.
func (e *NativeEnv) Load(a mem.Addr) uint64 {
	e.Insts++
	return e.Mem.ReadWord(a)
}

// Store writes directly to backing memory.
func (e *NativeEnv) Store(a mem.Addr, v uint64) {
	e.Insts++
	e.Mem.WriteWord(a, v)
}

// Amo applies the atomic directly.
func (e *NativeEnv) Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64 {
	e.Insts++
	old := e.Mem.ReadWord(a)
	if nv, write := cache.ApplyAmo(op, old, arg1, arg2); write {
		e.Mem.WriteWord(a, nv)
	}
	return old
}

// Alloc reserves words in the backing memory.
func (e *NativeEnv) Alloc(nwords int) mem.Addr { return e.Mem.AllocWords(nwords) }
