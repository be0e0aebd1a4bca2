// Package noc models the on-chip interconnection network: a 2D mesh
// with XY dimension-order routing, 16-byte flits, 1-cycle router and
// 1-cycle channel latency per hop (paper Table II), per-link bandwidth
// contention, and byte-accurate traffic accounting in the nine message
// categories reported in the paper's Figure 8.
package noc

import (
	"fmt"

	"bigtiny/internal/fault"
	"bigtiny/internal/sim"
)

// NodeID identifies a mesh node (row-major).
type NodeID int

// Category classifies a message for traffic accounting (paper Fig. 8).
type Category int

// Message categories, matching the paper's Figure 8 legend.
const (
	CPUReq   Category = iota // requests from L1 to L2
	WBReq                    // write-back data from L1 to L2
	DataResp                 // data response from L2 to L1
	DRAMReq                  // request from L2 to DRAM
	DRAMResp                 // response from DRAM to L2
	SyncReq                  // synchronization (AMO) request
	SyncResp                 // synchronization response
	CohReq                   // coherence request (invalidations, recalls)
	CohResp                  // coherence response (acks, owner data)
	NumCategories
)

var categoryNames = [NumCategories]string{
	"cpu_req", "wb_req", "data_resp", "dram_req", "dram_resp",
	"sync_req", "sync_resp", "coh_req", "coh_resp",
}

// String returns the paper's name for the category.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("cat(%d)", int(c))
	}
	return categoryNames[c]
}

// Traffic accumulates bytes and message counts per category.
type Traffic struct {
	Bytes    [NumCategories]uint64
	Messages [NumCategories]uint64
}

// TotalBytes sums traffic across all categories.
func (t *Traffic) TotalBytes() uint64 {
	var s uint64
	for _, b := range t.Bytes {
		s += b
	}
	return s
}

// Mesh is a Rows x Cols mesh network. Each directed link between
// adjacent routers is a unit-capacity resource occupied for one cycle
// per flit.
type Mesh struct {
	Rows, Cols int
	FlitBytes  int
	// ChannelLat + RouterLat is the per-hop head latency.
	ChannelLat sim.Time
	RouterLat  sim.Time

	// Faults, when non-nil, injects latency jitter and congestion
	// bursts into every message (see internal/fault).
	Faults *fault.Injector

	links   []sim.Resource // directed links, indexed by node*numDirs + dir
	Traffic Traffic
	// HopsSum/Sends track average distance for reporting.
	HopsSum uint64
	Sends   uint64
	// ByteHops accumulates payload bytes x hops traversed (energy proxy).
	ByteHops uint64
}

const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	numDirs
)

// NewMesh builds a mesh with the paper's default flit size and hop
// latencies.
func NewMesh(rows, cols int) *Mesh {
	m := &Mesh{
		Rows: rows, Cols: cols,
		FlitBytes:  16,
		ChannelLat: 1,
		RouterLat:  1,
		links:      make([]sim.Resource, rows*cols*numDirs),
	}
	m.Reset()
	return m
}

// Reset frees every link and zeroes the traffic counts, keeping the
// geometry, latencies and fault injector.
func (m *Mesh) Reset() {
	clear(m.links)
	m.Traffic, m.HopsSum, m.Sends, m.ByteHops = Traffic{}, 0, 0, 0
}

// Node returns the NodeID for (row, col).
func (m *Mesh) Node(row, col int) NodeID {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("noc: node (%d,%d) outside %dx%d mesh", row, col, m.Rows, m.Cols))
	}
	return NodeID(row*m.Cols + col)
}

// RowCol returns the coordinates of n.
func (m *Mesh) RowCol(n NodeID) (row, col int) {
	return int(n) / m.Cols, int(n) % m.Cols
}

// Flits returns the number of flits needed for a payload of n bytes
// (minimum one flit: even a dataless request occupies a head flit).
func (m *Mesh) Flits(bytes int) int {
	f := (bytes + m.FlitBytes - 1) / m.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Send models transferring a message of the given size from one node to
// another starting at time now. It returns the arrival time of the tail
// flit. The head flit advances one hop per (router+channel) latency and
// waits when a link is congested; each traversed link is occupied for
// one cycle per flit (wormhole-style pipelining).
func (m *Mesh) Send(now sim.Time, from, to NodeID, bytes int, cat Category) sim.Time {
	// Injected faults delay the message's injection into the network
	// (jitter / congestion-burst model).
	now += m.Faults.NoCDelay(now)
	m.Traffic.Bytes[cat] += uint64(bytes)
	m.Traffic.Messages[cat]++
	m.Sends++

	flits := m.Flits(bytes)
	hopLat := m.ChannelLat + m.RouterLat
	if from == to {
		// Local delivery still pays one router traversal.
		return now + hopLat + sim.Time(flits-1)
	}

	fr, fc := m.RowCol(from)
	tr, tc := m.RowCol(to)
	t := now
	hops := 0
	// XY routing: travel along the row (X) first, then the column (Y).
	r, c := fr, fc
	for c != tc {
		dir := dirEast
		nextC := c + 1
		if tc < c {
			dir = dirWest
			nextC = c - 1
		}
		t = m.traverse(t, r, c, dir, flits, hopLat)
		c = nextC
		hops++
	}
	for r != tr {
		dir := dirSouth
		nextR := r + 1
		if tr < r {
			dir = dirNorth
			nextR = r - 1
		}
		t = m.traverse(t, r, c, dir, flits, hopLat)
		r = nextR
		hops++
	}
	m.HopsSum += uint64(hops)
	m.ByteHops += uint64(bytes) * uint64(hops)
	return t + sim.Time(flits-1)
}

// SendLossy is Send for the steal path of the ULI mesh: the message may
// be lost. The drop decision comes from the passed injector (the ULI
// mesh carries no injector of its own — timing faults apply to the data
// mesh only, and drops are decided per steal-path message here) and is
// drawn before the flits are injected. A dropped message still
// traverses the network — the bytes are spent, traffic is counted, and
// loss is modelled at the receiving network interface — so the caller
// gets the would-be arrival time along with dropped=true and simply
// never schedules the delivery.
func (m *Mesh) SendLossy(now sim.Time, from, to NodeID, bytes int, cat Category,
	in *fault.Injector) (arrive sim.Time, dropped bool) {
	switch cat {
	case SyncReq:
		dropped = in.ULIDropReq()
	case SyncResp:
		dropped = in.ULIDropResp()
	}
	return m.Send(now, from, to, bytes, cat), dropped
}

// traverse moves the head flit across one link, modelling both queueing
// (the link may be busy with earlier messages) and bandwidth (the link
// is occupied one cycle per flit).
func (m *Mesh) traverse(t sim.Time, row, col, dir, flits int, hopLat sim.Time) sim.Time {
	done := m.links[(row*m.Cols+col)*numDirs+dir].Acquire(t, sim.Time(flits))
	// The head flit leaves when it has been serviced for one cycle after
	// any queueing delay; done-flits is the start-of-service time.
	start := done - sim.Time(flits)
	return start + hopLat
}

// AvgHops reports the mean hop count over all sends.
func (m *Mesh) AvgHops() float64 {
	if m.Sends == 0 {
		return 0
	}
	return float64(m.HopsSum) / float64(m.Sends)
}

// LinkUtilization returns the maximum and mean utilization across all
// links for the elapsed time.
func (m *Mesh) LinkUtilization(elapsed sim.Time) (maxU, meanU float64) {
	var sum float64
	for i := range m.links {
		u := m.links[i].Utilization(elapsed)
		sum += u
		if u > maxU {
			maxU = u
		}
	}
	return maxU, sum / float64(len(m.links))
}
