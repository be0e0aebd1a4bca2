package oracle

import (
	"strings"
	"testing"
)

func TestInitialValueWildcard(t *testing.T) {
	c := New(2)
	// Setup writes bypass the hooks, so the first load of any location
	// can return anything.
	c.OnLoad(0, 0x100, 42)
	c.OnLoad(1, 0x100, 99)
	if err := c.Err(); err != nil {
		t.Fatalf("pre-write loads flagged: %v", err)
	}
}

func TestLoadSeesOwnStore(t *testing.T) {
	c := New(2)
	c.OnStore(0, 0x100, 7)
	c.OnLoad(0, 0x100, 7)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// After observing its own store, the same core may not read an
	// earlier (never-written) value again.
	c.OnLoad(0, 0x100, 3)
	if c.nviol != 1 {
		t.Fatalf("backwards read not flagged: %d violations", c.nviol)
	}
}

func TestStaleReadByOtherCoreIsLegal(t *testing.T) {
	c := New(2)
	c.OnStore(0, 0x100, 7)
	// Core 1 has observed nothing at this location: reading the stale
	// pre-write value is legal under the software-centric protocols
	// (its frontier is still the wildcard).
	c.OnLoad(1, 0x100, 12345)
	// And it may later advance to the real value.
	c.OnLoad(1, 0x100, 7)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// But having advanced, it can never go back.
	c.OnLoad(1, 0x100, 12345)
	if c.nviol != 1 {
		t.Fatal("read went backwards without a violation")
	}
}

func TestMonotonicAcrossVersions(t *testing.T) {
	c := New(2)
	c.OnStore(0, 0x100, 1)
	c.OnStore(0, 0x100, 2)
	c.OnStore(0, 0x100, 3)
	c.OnLoad(1, 0x100, 2) // skipping version 1 is fine
	c.OnLoad(1, 0x100, 3)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	c.OnLoad(1, 0x100, 1) // ... but returning to 1 is not
	if c.nviol != 1 {
		t.Fatal("non-monotonic read not flagged")
	}
}

func TestAmoPinsInitialValue(t *testing.T) {
	c := New(2)
	// fetch-add observing initial 10, writing 11.
	c.OnAmo(0, 0x200, 10, 11, true)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// The wildcard is now pinned to 10: a late load of some other
	// never-written value is a violation for a core that already
	// observed version >= 1... but core 1's frontier is still 0, so it
	// may still see the pinned initial 10 or the new 11 — anything else
	// must already have been possible via the wildcard. Wildcard only
	// matches while frontier==0, so core 1 first observes 11:
	c.OnLoad(1, 0x200, 11)
	// then may not go back to 10.
	c.OnLoad(1, 0x200, 10)
	if c.nviol != 1 {
		t.Fatal("read-backwards past an AMO not flagged")
	}
}

func TestAmoOnStaleCopyFlagged(t *testing.T) {
	c := New(2)
	c.OnStore(0, 0x300, 5)
	// Core 1 AMOs on a stale copy: old=0 but the latest committed write
	// is 5 — exactly what a missing cache_flush in a steal hand-off
	// produces.
	c.OnAmo(1, 0x300, 0, 1, true)
	if c.nviol != 1 {
		t.Fatalf("stale AMO not flagged: %d violations", c.nviol)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "amo") {
		t.Fatalf("error missing amo detail: %v", err)
	}
}

func TestAmoChainSerializes(t *testing.T) {
	c := New(4)
	// A correct AMO chain from 4 cores: each sees the previous new value.
	c.OnAmo(0, 0x400, 0, 1, true)
	c.OnAmo(1, 0x400, 1, 2, true)
	c.OnAmo(2, 0x400, 2, 3, true)
	c.OnAmo(3, 0x400, 3, 4, true)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestViolationStormTruncated(t *testing.T) {
	c := New(1)
	c.OnStore(0, 0x500, 1)
	for i := 0; i < 20; i++ {
		c.OnLoad(0, 0x500, 999) // never written
	}
	if c.nviol != 20 {
		t.Fatalf("violations = %d, want 20", c.nviol)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "and 12 more") {
		t.Fatalf("storm not truncated: %v", err)
	}
}

func TestNilCheckerIsQuiet(t *testing.T) {
	var c *Checker
	if c.Err() != nil {
		t.Fatal("nil checker reported state")
	}
}
