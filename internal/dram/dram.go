// Package dram models the main-memory controllers: one controller per
// mesh column (paper Table II), each with a fixed access latency plus a
// bandwidth constraint. The 64-core system has 8 controllers sharing
// 16 GB/s; at a 1 GHz clock that is 16 B/cycle total, i.e. 2 B/cycle per
// controller, so one 64 B line occupies a controller for 32 cycles.
package dram

import (
	"bigtiny/internal/fault"
	"bigtiny/internal/sim"
)

// Controller models one memory channel.
type Controller struct {
	res sim.Resource
	// Lat is the fixed access latency (row activation + CAS, in cycles).
	Lat sim.Time
	// LineCycles is the bandwidth occupancy of one 64-byte line transfer.
	LineCycles sim.Time

	// Faults, when non-nil, injects latency spikes and bandwidth
	// throttling (see internal/fault).
	Faults *fault.Injector

	Reads  uint64
	Writes uint64
}

// Config holds DRAM model parameters.
type Config struct {
	// AccessLat is the fixed per-access latency in cycles.
	AccessLat sim.Time
	// BytesPerCycle is the per-controller bandwidth.
	BytesPerCycle float64
	// LineBytes is the transfer unit (cache line size).
	LineBytes int
}

// DefaultConfig matches the paper's 64-core system: 16 GB/s across 8
// controllers at 1 GHz.
func DefaultConfig() Config {
	return Config{AccessLat: 60, BytesPerCycle: 2, LineBytes: 64}
}

// NewController builds a controller from cfg.
func NewController(cfg Config) *Controller {
	lineCycles := sim.Time(float64(cfg.LineBytes) / cfg.BytesPerCycle)
	if lineCycles < 1 {
		lineCycles = 1
	}
	c := &Controller{
		Lat:        cfg.AccessLat,
		LineCycles: lineCycles,
	}
	c.Reset()
	return c
}

// Reset frees the channel and zeroes the access counts, keeping the
// timing and fault injector.
func (c *Controller) Reset() {
	c.res, c.Reads, c.Writes = sim.Resource{}, 0, 0
}

// Access models one line-sized read or write beginning at now and
// returns its completion time. Bandwidth occupancy is modelled with
// resource reservation; latency overlaps with queueing only for the
// fixed portion.
func (c *Controller) Access(now sim.Time, write bool) sim.Time {
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	occupancy, extra := c.Faults.DRAMAccess(now, c.LineCycles)
	done := c.res.Acquire(now, occupancy)
	return done + c.Lat + extra
}

// Utilization reports the bandwidth utilization over elapsed cycles.
func (c *Controller) Utilization(elapsed sim.Time) float64 {
	return c.res.Utilization(elapsed)
}
