package cache

import (
	"testing"

	"bigtiny/internal/mem"
	"bigtiny/internal/noc"
	"bigtiny/internal/sim"
)

// TestRecall drives each kind of owner the L2's one recall path takes
// words back from: a MESI owner that drops the line or is downgraded to
// a sharer, a DeNovo owner that gives up only the words asked for, and
// two DeNovo owners in one recall. Each case checks the recalls made,
// the bytes the owners answered with, what each owner kept and the
// owner record left at the L2.
func TestRecall(t *testing.T) {
	none := ownedBy(noOwner)
	cases := []struct {
		name   string
		protos []Protocol
		// own makes the owners; access is the recalling access.
		own    func(c []*L1, a mem.Addr) sim.Time
		access func(c []*L1, a mem.Addr, now sim.Time)
		// recalls and bytes are what access costs: recalls made, and
		// bytes of the owners' answers.
		recalls, bytes uint64
		// kept is each core's L1 line after access: valid, owned and
		// valid-word masks (-1: no line); owner is the L2's record.
		kept  [][3]int
		owner [mem.WordsPerLine]int32
	}{
		{
			name:    "MESI M owner drops the line for a writer",
			protos:  []Protocol{MESI, MESI},
			own:     func(c []*L1, a mem.Addr) sim.Time { return c[0].Store(0, a, 7) },
			access:  func(c []*L1, a mem.Addr, now sim.Time) { c[1].Store(now, a, 8) },
			recalls: 1, bytes: lineRespBytes,
			kept:  [][3]int{{-1}, {1, 0xFF, 0}},
			owner: ownedBy(1),
		},
		{
			name:    "MESI M owner is downgraded for a reader",
			protos:  []Protocol{MESI, MESI},
			own:     func(c []*L1, a mem.Addr) sim.Time { return c[0].Store(0, a, 7) },
			access:  func(c []*L1, a mem.Addr, now sim.Time) { c[1].Load(now, a) },
			recalls: 1, bytes: lineRespBytes,
			kept:  [][3]int{{1, 0, 0xFF}, {1, 0, 0xFF}},
			owner: none,
		},
		{
			name:   "MESI E owner answers a reader with an ack",
			protos: []Protocol{MESI, MESI},
			own: func(c []*L1, a mem.Addr) sim.Time {
				_, t := c[0].Load(0, a)
				return t
			},
			access:  func(c []*L1, a mem.Addr, now sim.Time) { c[1].Load(now, a) },
			recalls: 1, bytes: ackBytes,
			kept:  [][3]int{{1, 0, 0xFF}, {1, 0, 0xFF}},
			owner: none,
		},
		{
			name:   "DeNovo owner gives up only the written word",
			protos: []Protocol{DeNovo, GPUWT},
			own: func(c []*L1, a mem.Addr) sim.Time {
				return c[0].Store(c[0].Store(0, a, 1), a+8, 2)
			},
			access:  func(c []*L1, a mem.Addr, now sim.Time) { c[1].Store(now, a, 3) },
			recalls: 1, bytes: uint64(wbBytes(0b01)),
			kept:  [][3]int{{1, 0b10, 0b01}, {-1}},
			owner: [mem.WordsPerLine]int32{-1, 0, -1, -1, -1, -1, -1, -1},
		},
		{
			name:   "two DeNovo owners answer one reader",
			protos: []Protocol{DeNovo, DeNovo, MESI},
			own: func(c []*L1, a mem.Addr) sim.Time {
				return c[1].Store(c[0].Store(0, a, 1), a+8, 2)
			},
			access:  func(c []*L1, a mem.Addr, now sim.Time) { c[2].Load(now, a) },
			recalls: 2, bytes: 2 * uint64(wbBytes(0b01)),
			kept:  [][3]int{{1, 0, 0b01}, {1, 0, 0b10}, {1, 0, 0xFF}},
			owner: ownedBy(2), // recalled down to no owner, so the reader is granted E
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newTestSystem(t, tc.protos, 4096)
			a := sys.Mem().Alloc(mem.LineSize)
			l1s := make([]*L1, len(tc.protos))
			for c := range l1s {
				l1s[c] = sys.L1(c)
			}
			now := tc.own(l1s, a)
			recalls, bytes := sys.L2Stats.Recalls, sys.Mesh().Traffic.Bytes[noc.CohResp]
			tc.access(l1s, a, now)
			if got := sys.L2Stats.Recalls - recalls; got != tc.recalls {
				t.Errorf("%d recalls, want %d", got, tc.recalls)
			}
			if got := sys.Mesh().Traffic.Bytes[noc.CohResp] - bytes; got != tc.bytes {
				t.Errorf("owners answered with %d bytes, want %d", got, tc.bytes)
			}
			for c, want := range tc.kept {
				got := [3]int{-1}
				if ln := l1s[c].find(a); ln != nil {
					got = [3]int{1, int(ln.ownedMask), int(ln.validMask)}
				}
				if got != want {
					t.Errorf("core %d keeps %v (valid, owned, valid words), want %v", c, got, want)
				}
			}
			line, _ := sys.peek(sys.bankFor(a), a)
			if line.owner != tc.owner {
				t.Errorf("L2 owner record %v, want %v", line.owner, tc.owner)
			}
			if err := checkDirectory(sys); err != "" {
				t.Error(err)
			}
		})
	}
}
