package cache

import (
	"fmt"
	"testing"

	"bigtiny/internal/fault"
	"bigtiny/internal/sim"
)

// FuzzL1Ops drives a byte-coded op stream (three bytes an op: kind and
// core, line and word, operands) on a mixed-protocol system under cache
// pressure, and after every op checks each protocol's mask invariants
// on every valid L1 line. The seed corpus runs under go test.
func FuzzL1Ops(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := sim.NewRand(seed)
		b := make([]byte, 3*400)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	protos := []Protocol{MESI, MESI, DeNovo, GPUWT, GPUWB}
	f.Fuzz(func(t *testing.T, b []byte) {
		inj := fault.NewInjector(fault.Scenario{Name: "pressure", EvictEvery: 5}, 1)
		sys, base := opSystem(protos, inj)
		now := make([]sim.Time, len(protos))
		for i := 0; i+3 <= len(b); i += 3 {
			op := l1Op{
				kind: int(b[i]) % numOpKinds, core: int(b[i]) / numOpKinds % len(protos),
				line: int(b[i+1]) % opLines, word: int(b[i+1]>>4) % 8,
				x: uint64(b[i+2] & 3), y: uint64(b[i+2] >> 2 & 3),
			}
			op.do(sys, base, now)
			for c := range protos {
				if err := checkMasks(sys.L1(c)); err != "" {
					t.Fatalf("after op %d %+v: core %d (%v): %s", i/3, op, c, protos[c], err)
				}
			}
		}
	})
}

// checkMasks returns a description of the first valid line of l that
// breaks its protocol's mask invariants, or "" if none does.
func checkMasks(l *L1) string {
	for _, set := range l.sets {
		for i := range set {
			ln := &set[i]
			if !ln.valid {
				continue
			}
			v, o, d := ln.validMask, ln.ownedMask, ln.dirtyMask
			var bad bool
			switch l.proto {
			case MESI:
				bad = d != 0 || !(v == 0xFF && o == 0 || o == 0xFF && v == 0 && !ln.excl)
			case DeNovo:
				bad = d != 0 || v&o != 0
			case GPUWT:
				bad = o != 0 || d != 0
			case GPUWB:
				bad = o != 0
			}
			if bad || ln.excl && l.proto != MESI || v|o|d == 0 {
				return fmt.Sprintf("line %#x valid %08b owned %08b dirty %08b excl %v",
					uint64(ln.tag), v, o, d, ln.excl)
			}
		}
	}
	return ""
}
