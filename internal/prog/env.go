// Package prog defines the execution environment that simulated
// software (the work-stealing runtime and the application kernels) is
// written against: timed loads/stores/atomics, the cache_invalidate and
// cache_flush instructions, ULI operations, and abstract compute
// instructions.
//
// Two implementations exist: SimEnv runs on a simulated core with full
// timing and coherence behaviour, and NativeEnv executes functionally
// at zero cost (used for output verification and for the Cilkview-style
// work/span analysis).
package prog

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/cpu"
	"bigtiny/internal/machine"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// Env is the software-visible machine interface. All application and
// runtime data that crosses task boundaries must live in simulated
// memory and be accessed through it — that is what makes coherence
// behaviour (and its bugs) real.
type Env interface {
	// TID returns the hardware thread id (== core id).
	TID() int
	// NThreads returns the total thread count.
	NThreads() int
	// Now returns the current cycle.
	Now() sim.Time

	// Compute executes n abstract non-memory instructions.
	Compute(n int)
	// Spin executes n abstract non-memory instructions in chunks of at
	// most chunk, each chunk boundary an interrupt point: a loop of
	// Compute calls, cheaper to simulate.
	Spin(n, chunk int)
	// IdleUntil parks the thread until cycle t (no-op when t has
	// passed), remaining responsive to interrupts. Open-system load
	// drivers use it to sleep between arrivals without burning compute.
	IdleUntil(t sim.Time)
	// SetFunc tags subsequent Compute instructions as belonging to
	// function fid (instruction-cache modelling).
	SetFunc(fid, footprintBytes int)

	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64
	CacheInvalidate()
	CacheFlush()

	// HasULI reports whether direct task stealing hardware exists.
	HasULI() bool
	ULIEnable()
	ULIDisable()
	// ULISendReq sends a steal request to victim and blocks for the
	// response; ok is false on NACK.
	ULISendReq(victim int) (payload uint64, ok bool)

	// Alloc reserves n words of simulated memory (the software heap).
	Alloc(nwords int) mem.Addr
	// Rand is this thread's deterministic PRNG (victim selection).
	Rand() *sim.Rand

	// Offline reports whether this core has fail-stopped (fault
	// injection). A scheduling loop that observes true must abandon the
	// core forever.
	Offline() bool
}

// SimEnv is the Env for one hardware thread of a simulated machine.
type SimEnv struct {
	M    *machine.Machine
	Core *cpu.Core
	rng  *sim.Rand
}

// NewSimEnv builds the environment for a core. Call from inside the
// core's Spawned body.
func NewSimEnv(m *machine.Machine, core *cpu.Core) *SimEnv {
	return &SimEnv{M: m, Core: core, rng: sim.NewRand(uint64(core.ID)*2654435761 + 12345)}
}

// TID returns the core id.
func (e *SimEnv) TID() int { return e.Core.ID }

// NThreads returns the machine's core count.
func (e *SimEnv) NThreads() int { return len(e.M.Cores) }

// Now returns the current cycle.
func (e *SimEnv) Now() sim.Time { return e.Core.Now() }

// Compute burns n abstract instructions on the core.
func (e *SimEnv) Compute(n int) { e.Core.Compute(n) }

// Spin burns n abstract instructions in interruptible chunks.
func (e *SimEnv) Spin(n, chunk int) { e.Core.Spin(n, chunk) }

// IdleUntil parks the core until cycle t, polling for interrupts.
func (e *SimEnv) IdleUntil(t sim.Time) { e.Core.IdleUntil(t) }

// SetFunc switches the instruction-cache function context.
func (e *SimEnv) SetFunc(fid, footprintBytes int) { e.Core.SetFunc(fid, footprintBytes) }

// Load issues a timed load.
func (e *SimEnv) Load(a mem.Addr) uint64 { return e.Core.Load(a) }

// Store issues a timed store.
func (e *SimEnv) Store(a mem.Addr, v uint64) { e.Core.Store(a, v) }

// Amo issues a timed atomic.
func (e *SimEnv) Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64 {
	return e.Core.Amo(a, op, arg1, arg2)
}

// CacheInvalidate issues cache_invalidate.
func (e *SimEnv) CacheInvalidate() { e.Core.Invalidate() }

// CacheFlush issues cache_flush.
func (e *SimEnv) CacheFlush() { e.Core.Flush() }

// HasULI reports DTS hardware presence.
func (e *SimEnv) HasULI() bool { return e.Core.ULI != nil }

// ULIEnable enables interrupt delivery.
func (e *SimEnv) ULIEnable() { e.Core.ULIEnable() }

// ULIDisable defers interrupt delivery.
func (e *SimEnv) ULIDisable() { e.Core.ULIDisable() }

// ULISendReq performs a blocking steal request.
func (e *SimEnv) ULISendReq(victim int) (uint64, bool) { return e.Core.ULISendReq(victim) }

// Alloc reserves simulated heap memory. The bump allocation itself is a
// few instructions; cold-miss costs are paid on first touch like any
// other memory.
func (e *SimEnv) Alloc(nwords int) mem.Addr {
	e.Core.Compute(4)
	return e.M.Mem.AllocWords(nwords)
}

// Rand returns the thread's PRNG.
func (e *SimEnv) Rand() *sim.Rand { return e.rng }

// Offline reports whether the core has fail-stopped.
func (e *SimEnv) Offline() bool { return e.Core.Offline() }

// NativeEnv executes functionally against a bare memory with zero
// simulated time. It also counts abstract instructions, which the
// Cilkview-style analyzer uses for work/span accounting.
type NativeEnv struct {
	Mem *mem.Memory
	rng *sim.Rand
	// Insts counts abstract instructions (compute + 1 per memory op).
	Insts uint64
}

// NewNativeEnv returns a fresh zero-time environment.
func NewNativeEnv(m *mem.Memory) *NativeEnv {
	return &NativeEnv{Mem: m, rng: sim.NewRand(1)}
}

// TID returns 0: native execution is single-threaded.
func (e *NativeEnv) TID() int { return 0 }

// NThreads returns 1.
func (e *NativeEnv) NThreads() int { return 1 }

// Now returns 0; native execution has no clock.
func (e *NativeEnv) Now() sim.Time { return 0 }

// Compute counts n instructions.
func (e *NativeEnv) Compute(n int) { e.Insts += uint64(n) }

// Spin counts n instructions.
func (e *NativeEnv) Spin(n, chunk int) { e.Compute(n) }

// IdleUntil is a no-op natively: there is no clock to wait on.
func (e *NativeEnv) IdleUntil(t sim.Time) {}

// SetFunc is a no-op natively.
func (e *NativeEnv) SetFunc(fid, footprintBytes int) {}

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

// CacheInvalidate is free natively.
func (e *NativeEnv) CacheInvalidate() { e.Insts++ }

// CacheFlush is free natively.
func (e *NativeEnv) CacheFlush() { e.Insts++ }

// HasULI reports false: no DTS hardware natively.
func (e *NativeEnv) HasULI() bool { return false }

// ULIEnable panics: native execution has no ULI.
func (e *NativeEnv) ULIEnable() { panic("prog: ULI not available natively") }

// ULIDisable panics: native execution has no ULI.
func (e *NativeEnv) ULIDisable() { panic("prog: ULI not available natively") }

// ULISendReq panics: native execution has no ULI.
func (e *NativeEnv) ULISendReq(int) (uint64, bool) { panic("prog: ULI not available natively") }

// Alloc reserves words in the backing memory.
func (e *NativeEnv) Alloc(nwords int) mem.Addr { return e.Mem.AllocWords(nwords) }

// Rand returns the deterministic PRNG.
func (e *NativeEnv) Rand() *sim.Rand { return e.rng }

// Offline reports false: native execution cannot lose its only thread.
func (e *NativeEnv) Offline() bool { return false }
