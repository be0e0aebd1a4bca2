// Package oracle is a golden memory-ordering referee for the simulated
// cache hierarchy. A Checker shadows every architecturally-performed
// load, store, and AMO (via the cache.Oracle hook on each L1) and fails
// the run when a load returns a value that no legal per-location order
// of the observed writes could produce.
//
// The model is per-location coherence-order checking, deliberately
// weaker than full sequential consistency so that the relaxed
// software-centric protocols (DeNovo, GPU-WT, GPU-WB) pass when
// correct:
//
//   - Every store appends a version to the location's history; the
//     observed append order stands in for the per-location write order.
//     This is exact for data-race-free programs (conflicting writes are
//     ordered by synchronization, so issue order and coherence order
//     agree) and is the oracle's main modelling limit for racy ones.
//   - A load must return some version at or after the version its core
//     last observed at that location: stale reads are legal under the
//     software-centric protocols, but a core can never read backwards,
//     read a value that was never written, or read its own write's
//     predecessor.
//   - Version 0 of every location is a wildcard standing for "whatever
//     the location held before the first shadowed write" — setup writes
//     performed through the memory backdoor (program loading) bypass
//     the hooks, so the initial value is unknown until pinned. The
//     initial value is still a *single* value, so each core can read at
//     most one distinct value against the wildcard; a second different
//     one must match a real version.
//   - An AMO is globally serializing for its location: the old value it
//     returns must equal the latest committed version (an AMO on top of
//     a stale copy is exactly the bug class a missing cache_flush in a
//     steal hand-off produces). If only the wildcard exists, the AMO
//     pins the initial value instead.
//
// Violations do not stop the simulation; they are recorded (first few
// in detail) and surfaced as an error from the machine's Run.
package oracle

import (
	"errors"
	"fmt"
	"strings"
)

// maxDetailed bounds how many violations keep full detail.
const maxDetailed = 8

// Violation is one impossible observation.
type Violation struct {
	Core int
	Addr uint64
	Op   string // "load" or "amo"
	Got  uint64 // the value observed
	Want string // what the history allowed
}

func (v Violation) String() string {
	return fmt.Sprintf("core %d %s @%#x returned %d, but %s", v.Core, v.Op, v.Addr, v.Got, v.Want)
}

// loc is one word's shadow state.
type loc struct {
	// hist is the version history; hist[0] is the wildcard initial
	// version (matches anything until pinned by an AMO).
	hist []uint64
	// seen[c] is the index of the latest version core c has observed:
	// its reads may never move backwards through hist.
	seen []int32
	// pinned is set once an AMO has revealed the location's true initial
	// value (appended as version 1): from then on the wildcard matches
	// nothing — the pre-write value is no longer unknown.
	pinned bool
	// wcVal[c]/wcSet[c] record the one value core c has read against the
	// wildcard: the initial value is a single (unknown) value, so a
	// second distinct read by the same core cannot also be "the initial
	// value" and must match a real version instead.
	wcVal []uint64
	wcSet []bool
}

// Checker is the oracle for one machine. It implements cache.Oracle.
type Checker struct {
	ncores int
	locs   map[uint64]*loc

	// Ops counts shadowed operations (overhead reporting).
	Ops uint64

	violations []Violation
	nviol      uint64
}

// New returns a checker for a machine with ncores cores.
func New(ncores int) *Checker {
	c := &Checker{ncores: ncores, locs: make(map[uint64]*loc)}
	c.Reset()
	return c
}

// Reset forgets every observation, for a new run on the same machine.
func (c *Checker) Reset() {
	clear(c.locs)
	c.Ops, c.violations, c.nviol = 0, nil, 0
}

func (c *Checker) get(a uint64) *loc {
	l := c.locs[a]
	if l == nil {
		l = &loc{
			hist:  make([]uint64, 1, 4),
			seen:  make([]int32, c.ncores),
			wcVal: make([]uint64, c.ncores),
			wcSet: make([]bool, c.ncores),
		}
		c.locs[a] = l
	}
	return l
}

func (c *Checker) report(v Violation) {
	c.nviol++
	if len(c.violations) < maxDetailed {
		c.violations = append(c.violations, v)
	}
}

// OnLoad checks a load of v from word address a by core.
func (c *Checker) OnLoad(core int, a uint64, v uint64) {
	c.Ops++
	l := c.get(a)
	k := l.seen[core]
	if k == 0 {
		// The wildcard is still reachable: v may be the (unknown)
		// initial value. Staying on the wildcard is the maximally
		// permissive choice (every real version stays available), but a
		// core can claim only ONE distinct value as the initial — a
		// second different value must match a real version below.
		if !l.pinned && (!l.wcSet[core] || l.wcVal[core] == v) {
			l.wcSet[core] = true
			l.wcVal[core] = v
			return
		}
		k = 1
	}
	// Greedy smallest match at or after the core's frontier: taking the
	// earliest legal version keeps every later one available, so this
	// never rejects an observation a lazier match would accept.
	for ; k < int32(len(l.hist)); k++ {
		if l.hist[k] == v {
			l.seen[core] = k
			return
		}
	}
	c.report(Violation{Core: core, Addr: a, Op: "load", Got: v,
		Want: fmt.Sprintf("no version >= its frontier %d of %d matches (latest write %d)",
			l.seen[core], len(l.hist)-1, l.hist[len(l.hist)-1])})
}

// OnStore records a store of v to word address a by core.
func (c *Checker) OnStore(core int, a uint64, v uint64) {
	c.Ops++
	l := c.get(a)
	l.hist = append(l.hist, v)
	l.seen[core] = int32(len(l.hist) - 1)
}

// OnAmo checks an atomic on word address a: old must be the latest
// committed version (or pins the wildcard initial).
func (c *Checker) OnAmo(core int, a uint64, old, newVal uint64, wrote bool) {
	c.Ops++
	l := c.get(a)
	latest := len(l.hist) - 1
	if latest == 0 {
		// Only the wildcard exists: this AMO reveals the initial value.
		l.hist = append(l.hist, old)
		l.pinned = true
		latest = 1
	} else if l.hist[latest] != old {
		c.report(Violation{Core: core, Addr: a, Op: "amo", Got: old,
			Want: fmt.Sprintf("the latest committed write is %d (version %d)",
				l.hist[latest], latest)})
		// Adopt the observed value so one protocol bug does not cascade
		// into a violation storm at this location.
		l.hist = append(l.hist, old)
		latest = len(l.hist) - 1
	}
	if wrote {
		l.hist = append(l.hist, newVal)
		latest = len(l.hist) - 1
	}
	l.seen[core] = int32(latest)
}

// Violations returns the total violation count.
func (c *Checker) Violations() uint64 {
	if c == nil {
		return 0
	}
	return c.nviol
}

// Err returns nil if every observation was legal, else an error
// detailing the first violations.
func (c *Checker) Err() error {
	if c == nil || c.nviol == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: %d memory-ordering violation(s):", c.nviol)
	for _, v := range c.violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	if c.nviol > uint64(len(c.violations)) {
		fmt.Fprintf(&b, "\n  ... and %d more", c.nviol-uint64(len(c.violations)))
	}
	return errors.New(b.String())
}
