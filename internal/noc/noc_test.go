package noc

import (
	"testing"
	"testing/quick"
)

func TestHopsXY(t *testing.T) {
	m := NewMesh(8, 8)
	cases := []struct {
		fr, fc, tr, tc, want int
	}{
		{0, 0, 0, 0, 0},
		{0, 0, 0, 7, 7},
		{0, 0, 7, 0, 7},
		{3, 2, 5, 6, 6},
		{7, 7, 0, 0, 14},
	}
	for _, c := range cases {
		m.Reset()
		m.Send(0, m.Node(c.fr, c.fc), m.Node(c.tr, c.tc), 8, CPUReq)
		if got := int(m.HopsSum); got != c.want {
			t.Errorf("Send (%d,%d)->(%d,%d) took %d hops, want %d", c.fr, c.fc, c.tr, c.tc, got, c.want)
		}
	}
}

func TestFlitCount(t *testing.T) {
	m := NewMesh(2, 2)
	for _, c := range []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {64, 4}, {72, 5},
	} {
		if got := m.Flits(c.bytes); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := NewMesh(8, 8)
	// Single-flit message across 7 hops: 2 cycles per hop.
	got := m.Send(100, m.Node(0, 0), m.Node(0, 7), 8, CPUReq)
	if got != 100+14 {
		t.Fatalf("arrival = %d, want 114", got)
	}
	// 72-byte message (5 flits): head pays 2/hop, tail 4 more cycles.
	m2 := NewMesh(8, 8)
	got = m2.Send(0, m2.Node(0, 0), m2.Node(2, 0), 72, DataResp)
	if got != 4+4 {
		t.Fatalf("multi-flit arrival = %d, want 8", got)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := NewMesh(4, 4)
	got := m.Send(10, m.Node(1, 1), m.Node(1, 1), 8, SyncReq)
	if got != 12 {
		t.Fatalf("local arrival = %d, want 12", got)
	}
}

func TestContentionDelaysSecondMessage(t *testing.T) {
	m := NewMesh(1, 8)
	a := m.Node(0, 0)
	b := m.Node(0, 7)
	t1 := m.Send(0, a, b, 64, DataResp) // 4 flits, occupies links
	t2 := m.Send(0, a, b, 64, DataResp) // must queue behind the first
	if t2 <= t1 {
		t.Fatalf("second message not delayed: t1=%d t2=%d", t1, t2)
	}
}

func TestDisjointPathsNoInterference(t *testing.T) {
	m := NewMesh(8, 8)
	t1 := m.Send(0, m.Node(0, 0), m.Node(0, 3), 8, CPUReq)
	t2 := m.Send(0, m.Node(7, 0), m.Node(7, 3), 8, CPUReq)
	if t1 != t2 {
		t.Fatalf("disjoint rows interfered: %d vs %d", t1, t2)
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := NewMesh(4, 4)
	m.Send(0, m.Node(0, 0), m.Node(1, 1), 8, CPUReq)
	m.Send(0, m.Node(0, 0), m.Node(1, 1), 72, DataResp)
	m.Send(0, m.Node(1, 1), m.Node(0, 0), 72, WBReq)
	if m.Traffic.Bytes[CPUReq] != 8 {
		t.Fatalf("cpu_req bytes = %d", m.Traffic.Bytes[CPUReq])
	}
	if m.Traffic.Bytes[DataResp] != 72 || m.Traffic.Messages[DataResp] != 1 {
		t.Fatal("data_resp accounting wrong")
	}
	if m.Traffic.TotalBytes() != 152 {
		t.Fatalf("total = %d, want 152", m.Traffic.TotalBytes())
	}
}

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		CPUReq: "cpu_req", WBReq: "wb_req", DataResp: "data_resp",
		DRAMReq: "dram_req", DRAMResp: "dram_resp",
		SyncReq: "sync_req", SyncResp: "sync_resp",
		CohReq: "coh_req", CohResp: "coh_resp",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), name)
		}
	}
}

// Property: latency is monotone in distance for fresh meshes and always
// at least hops * (router+channel).
func TestLatencyLowerBoundProperty(t *testing.T) {
	f := func(fr, fc, tr, tc uint8, sz uint16) bool {
		m := NewMesh(8, 8)
		from := m.Node(int(fr%8), int(fc%8))
		to := m.Node(int(tr%8), int(tc%8))
		bytes := int(sz % 256)
		arr := m.Send(1000, from, to, bytes, CPUReq)
		hops := max(fr%8, tr%8) - min(fr%8, tr%8) + max(fc%8, tc%8) - min(fc%8, tc%8)
		minLat := sim8(int(hops))*2 + sim8(m.Flits(bytes)) - 1
		if from == to {
			minLat = 2 + sim8(m.Flits(bytes)) - 1
		}
		return uint64(arr) == 1000+minLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sim8(x int) (t uint64) { return uint64(x) }

func TestAvgHops(t *testing.T) {
	m := NewMesh(4, 4)
	m.Send(0, m.Node(0, 0), m.Node(0, 2), 8, CPUReq) // 2 hops
	m.Send(0, m.Node(0, 0), m.Node(3, 3), 8, CPUReq) // 6 hops
	if got := m.AvgHops(); got != 4 {
		t.Fatalf("AvgHops = %v, want 4", got)
	}
}

func TestLinkUtilization(t *testing.T) {
	m := NewMesh(1, 2)
	m.Send(0, m.Node(0, 0), m.Node(0, 1), 160, DataResp) // 10 flits on one link
	maxU, meanU := m.LinkUtilization(100)
	if maxU != 0.10 {
		t.Fatalf("max utilization = %v, want 0.10", maxU)
	}
	if meanU <= 0 || meanU > maxU {
		t.Fatalf("mean utilization = %v out of range", meanU)
	}
}
