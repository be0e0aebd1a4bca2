package cache

import (
	"fmt"
	"testing"

	"bigtiny/internal/fault"
	"bigtiny/internal/mem"
	"bigtiny/internal/sim"
)

// FuzzL1Ops drives a byte-coded op stream (three bytes an op: kind and
// core, line and word, operands) on a mixed-protocol system under cache
// pressure, and after every op checks each protocol's mask invariants
// on every valid L1 line and the directory of every valid L2 line. The
// seed corpus runs under go test.
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
			if err := checkDirectory(sys); err != "" {
				t.Fatalf("after op %d %+v: %s", i/3, op, err)
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

// l2Owners reads a line's owner records as the directory's two views:
// the MESI owner (a core granted E or M) or -1, and the DeNovo owner of
// each word or -1.
func l2Owners(sys *System, l l2Ref) (mesi int, words [mem.WordsPerLine]int32) {
	mesi, words = noOwner, l.owner
	for w, o := range words {
		if o >= 0 && sys.l1s[o].proto == MESI {
			mesi, words[w] = int(o), noOwner
		}
	}
	return mesi, words
}

// checkDirectory returns a description of the first valid L2 line whose
// directory breaks an invariant, or "" if none does:
//   - (a) at most one of a MESI owner, MESI sharers and DeNovo word
//     owners is non-empty, so no two recall steps ever send a message
//     for one access;
//   - (b) a MESI owner owns all eight words;
//   - (c) each recorded owner's L1 holds the word owned, or the line in
//     E, and each word an L1 owns (each line it holds in E) is recorded.
func checkDirectory(sys *System) string {
	for _, b := range sys.banks {
		for _, ch := range b.chunks {
			if ch == nil {
				continue
			}
			for si := range ch {
				for i := range ch[si].ways {
					if l := sys.way(&ch[si], i); l.valid {
						if err := checkLine(sys, l); err != "" {
							return fmt.Sprintf("L2 line %#x: %s", uint64(l.tag), err)
						}
					}
				}
			}
		}
	}
	for c, l1 := range sys.l1s {
		for _, set := range l1.sets {
			for i := range set {
				ln := &set[i]
				if !ln.valid || ln.ownedMask == 0 && !ln.excl {
					continue
				}
				mesi, words := noOwner, ownedBy(noOwner)
				if l, ok := sys.peek(sys.bankFor(ln.tag), ln.tag); ok {
					mesi, words = l2Owners(sys, l)
				}
				for w, o := range words {
					if (ln.excl || ln.ownedMask&(1<<w) != 0) && mesi != c && int(o) != c {
						return fmt.Sprintf("core %d holds word %d of %#x (owned %08b excl %v) unrecorded at the L2",
							c, w, uint64(ln.tag), ln.ownedMask, ln.excl)
					}
				}
			}
		}
	}
	return ""
}

// checkLine checks the directory of one valid L2 line (see
// checkDirectory).
func checkLine(sys *System, l l2Ref) string {
	mesi, words := l2Owners(sys, l)
	nonEmpty := 0
	if mesi >= 0 {
		nonEmpty++
	}
	if !l.sharers.empty() {
		nonEmpty++
	}
	for _, o := range words {
		if o >= 0 {
			nonEmpty++
			break
		}
	}
	if nonEmpty > 1 {
		return fmt.Sprintf("(a) MESI owner %d, sharers %v and word owners %v at once", mesi, l.sharers.w, words)
	}
	if mesi >= 0 && l.owner != ownedBy(mesi) {
		return fmt.Sprintf("(b) MESI owner %d is recorded for words %v", mesi, l.owner)
	}
	if mesi >= 0 {
		if ln := sys.l1s[mesi].find(l.tag); ln == nil || ln.ownedMask != 0xFF && !ln.excl {
			return fmt.Sprintf("(c) MESI owner %d holds neither M nor E", mesi)
		}
	}
	for w, o := range words {
		if o < 0 {
			continue
		}
		if ln := sys.l1s[o].find(l.tag); ln == nil || ln.ownedMask&(1<<w) == 0 {
			return fmt.Sprintf("(c) word %d recorded for core %d, which does not own it", w, o)
		}
	}
	return ""
}
