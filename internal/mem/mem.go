// Package mem provides the simulated physical memory: a flat,
// word-addressable backing store standing in for DRAM contents, plus a
// simple bump allocator that simulated software uses to place its data
// structures (task descriptors, deques, application arrays).
//
// The backing store holds the "memory truth". Caches (internal/cache)
// hold copies of these words; under the software-centric coherence
// protocols those copies can be genuinely stale, which is exactly the
// behaviour the work-stealing runtime must handle.
package mem

import "fmt"

// Addr is a simulated byte address. All accesses in this system are
// 8-byte words, and addresses handed out by the allocator are 8-byte
// aligned.
type Addr uint64

// WordSize is the access granularity in bytes.
const WordSize = 8

// LineSize is the cache line size in bytes (64B per paper Table II).
const LineSize = 64

// WordsPerLine is LineSize / WordSize.
const WordsPerLine = LineSize / WordSize

// LineAddr returns the address of the cache line containing a.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// WordIndex returns the index of a's word within its cache line.
func WordIndex(a Addr) int { return int(a%LineSize) / WordSize }

// Memory is the flat backing store. Words are allocated lazily in
// fixed-size chunks so that sparse address spaces stay cheap. A
// one-entry memo in front of the chunk map exploits the strong chunk
// locality of line fills and writebacks (8 consecutive words per
// line, lines clustered per data structure), turning most accesses
// into a compare and an indexed load.
type Memory struct {
	chunks   map[Addr][]uint64 // chunk base -> chunkWords values
	lastBase Addr              // memo: base of the chunk last touched
	last     []uint64          // memo: that chunk's words (nil = no memo)
	brk      Addr              // allocator break
}

const (
	chunkWords = 1 << 14 // 16K words = 128KB per chunk
	chunkBytes = chunkWords * WordSize
	// heapBase leaves low addresses unused so that address 0 can serve
	// as the simulated null pointer.
	heapBase Addr = 0x10000
)

// New returns an empty memory with the allocator positioned at the heap
// base.
func New() *Memory {
	return &Memory{chunks: make(map[Addr][]uint64), brk: heapBase}
}

// ReadWord returns the word stored at a. a must be word-aligned.
func (m *Memory) ReadWord(a Addr) uint64 {
	checkAlign(a)
	base := a &^ (chunkBytes - 1)
	if m.last != nil && base == m.lastBase {
		return m.last[(a%chunkBytes)/WordSize]
	}
	c, ok := m.chunks[base]
	if !ok {
		return 0
	}
	m.lastBase, m.last = base, c
	return c[(a%chunkBytes)/WordSize]
}

// WriteWord stores v at a. a must be word-aligned.
func (m *Memory) WriteWord(a Addr, v uint64) {
	checkAlign(a)
	base := a &^ (chunkBytes - 1)
	if m.last != nil && base == m.lastBase {
		m.last[(a%chunkBytes)/WordSize] = v
		return
	}
	c, ok := m.chunks[base]
	if !ok {
		c = make([]uint64, chunkWords)
		m.chunks[base] = c
	}
	m.lastBase, m.last = base, c
	c[(a%chunkBytes)/WordSize] = v
}

// ReadLine copies the full cache line containing a into out.
func (m *Memory) ReadLine(a Addr, out *[WordsPerLine]uint64) {
	base := LineAddr(a)
	for i := 0; i < WordsPerLine; i++ {
		out[i] = m.ReadWord(base + Addr(i*WordSize))
	}
}

// WriteLineMasked writes the words of line whose bit is set in mask back
// to the line containing a.
func (m *Memory) WriteLineMasked(a Addr, line *[WordsPerLine]uint64, mask uint8) {
	base := LineAddr(a)
	for i := 0; i < WordsPerLine; i++ {
		if mask&(1<<i) != 0 {
			m.WriteWord(base+Addr(i*WordSize), line[i])
		}
	}
}

// Alloc reserves n bytes and returns the base address, 64-byte aligned
// so that distinct allocations never share a cache line (the simulated
// runtime relies on this to avoid false sharing of metadata).
func (m *Memory) Alloc(n int) Addr {
	if n < 0 {
		panic("mem: negative allocation")
	}
	base := (m.brk + LineSize - 1) &^ (LineSize - 1)
	m.brk = base + Addr((n+LineSize-1)&^(LineSize-1))
	return base
}

// AllocWords reserves n words and returns the base address.
func (m *Memory) AllocWords(n int) Addr { return m.Alloc(n * WordSize) }

func checkAlign(a Addr) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word access at %#x", uint64(a)))
	}
}
