// Package cache models the cache hierarchy of the big.TINY system: the
// four private-L1 coherence protocols the paper studies (MESI, DeNovo,
// GPU-WT, GPU-WB; Table I) and a shared banked L2 that integrates them
// in the style of Spandex, with an embedded directory that has a precise
// sharer list for MESI L1s (paper §V-A).
//
// L1s hold real copies of data. Under the software-centric protocols a
// copy can be genuinely stale until software issues a cache_invalidate,
// and dirty data is genuinely invisible to other cores until a
// cache_flush (GPU-WB) or an ownership recall (DeNovo). A runtime that
// omits a required invalidate or flush computes wrong answers in this
// model, exactly as it would on the real machine.
package cache

import "fmt"

// Protocol selects the coherence protocol of a private L1 cache.
type Protocol int

// The four protocols characterized in paper Table I.
const (
	MESI Protocol = iota
	DeNovo
	GPUWT
	GPUWB
)

// String returns the paper's name for the protocol.
func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case DeNovo:
		return "DeNovo"
	case GPUWT:
		return "GPU-WT"
	case GPUWB:
		return "GPU-WB"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// AmoOp selects an atomic read-modify-write operation.
type AmoOp int

// Atomic memory operations used by the runtime and applications.
const (
	AmoAdd  AmoOp = iota // fetch-and-add (fetch-and-sub via two's complement)
	AmoOr                // fetch-and-or (amo_or(x, 0) is the paper's atomic read)
	AmoAnd               // fetch-and-and
	AmoXchg              // atomic exchange
	AmoCAS               // compare-and-swap: arg1 = expected, arg2 = desired
)

func (op AmoOp) String() string {
	switch op {
	case AmoAdd:
		return "amo_add"
	case AmoOr:
		return "amo_or"
	case AmoAnd:
		return "amo_and"
	case AmoXchg:
		return "amo_xchg"
	case AmoCAS:
		return "amo_cas"
	}
	return fmt.Sprintf("amo(%d)", int(op))
}

// ApplyAmo computes the new value for op given the old value and
// operands, and reports whether the write happens (CAS can fail).
func ApplyAmo(op AmoOp, old, arg1, arg2 uint64) (newVal uint64, write bool) {
	switch op {
	case AmoAdd:
		return old + arg1, true
	case AmoOr:
		return old | arg1, true
	case AmoAnd:
		return old & arg1, true
	case AmoXchg:
		return arg1, true
	case AmoCAS:
		if old == arg1 {
			return arg2, true
		}
		return old, false
	}
	panic("cache: unknown AMO op")
}
