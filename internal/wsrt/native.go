package wsrt

import (
	"bigtiny/internal/cache"
	"bigtiny/internal/mem"
)

// nativeEnv is the env of RT.Analyze: it executes task bodies
// functionally against a bare memory at zero simulated time, counts
// abstract instructions (compute + 1 per memory op), and tracks the
// critical path through the fork-join DAG (Cilkview-style work/span;
// Fork's native branch drives it).
type nativeEnv struct {
	mem   *mem.Memory
	insts uint64 // instructions executed so far: the work
	last  uint64 // insts at the last sync point
	span  uint64 // span along the current strand
	tasks uint64 // tasks (fork branches) created
}

// sync attributes the instructions executed since the last sync to the
// current strand.
func (e *nativeEnv) sync() {
	e.span += e.insts - e.last
	e.last = e.insts
}

// Compute counts n instructions.
func (e *nativeEnv) Compute(n int) { e.insts += uint64(n) }

// Load reads directly from backing memory.
func (e *nativeEnv) Load(a mem.Addr) uint64 {
	e.insts++
	return e.mem.ReadWord(a)
}

// Load2 reads two words: two loads' instructions.
func (e *nativeEnv) Load2(a, b mem.Addr) (uint64, uint64) { return e.Load(a), e.Load(b) }

// Store writes directly to backing memory.
func (e *nativeEnv) Store(a mem.Addr, v uint64) {
	e.insts++
	e.mem.WriteWord(a, v)
}

// Copy copies a word: a load's and a store's instructions.
func (e *nativeEnv) Copy(dst, src mem.Addr) { e.Store(dst, e.Load(src)) }

// Amo applies the atomic directly.
func (e *nativeEnv) Amo(a mem.Addr, op cache.AmoOp, arg1, arg2 uint64) uint64 {
	e.insts++
	old := e.mem.ReadWord(a)
	if nv, write := cache.ApplyAmo(op, old, arg1, arg2); write {
		e.mem.WriteWord(a, nv)
	}
	return old
}
