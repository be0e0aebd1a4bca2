package dram

import "testing"

func TestAccessLatency(t *testing.T) {
	c := NewController(DefaultConfig())
	done := c.Access(100, false)
	// 32 cycles of bandwidth + 60 cycles fixed latency.
	if done != 100+32+60 {
		t.Fatalf("done = %d, want 192", done)
	}
	if c.Reads != 1 || c.Writes != 0 {
		t.Fatal("read/write counters wrong")
	}
}

func TestBandwidthSerializes(t *testing.T) {
	c := NewController(DefaultConfig())
	d1 := c.Access(0, false)
	d2 := c.Access(0, true)
	if d2 != d1+32 {
		t.Fatalf("second access done = %d, want %d", d2, d1+32)
	}
	if c.Writes != 1 {
		t.Fatal("write counter wrong")
	}
}

func TestIdleGapNoQueueing(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Access(0, false)
	done := c.Access(1000, false)
	if done != 1000+92 {
		t.Fatalf("done = %d, want 1092", done)
	}
}

func TestMinimumLineCycles(t *testing.T) {
	c := NewController(Config{AccessLat: 5, BytesPerCycle: 1024, LineBytes: 64})
	done := c.Access(0, false)
	if done != 1+5 {
		t.Fatalf("done = %d, want 6 (line transfer floors at 1 cycle)", done)
	}
}

func TestUtilization(t *testing.T) {
	c := NewController(DefaultConfig())
	c.Access(0, false)
	if got := c.Utilization(64); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}
