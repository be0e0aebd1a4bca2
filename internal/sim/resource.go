package sim

// Resource models a unit-capacity hardware resource (an L2 bank port, a
// DRAM channel, a mesh link) using reservation: each use occupies the
// resource for a service time, and a request arriving while the resource
// is busy waits until it frees. Because the kernel processes events in
// time order, reservation yields the same queueing behaviour as an
// explicit queue for unit-capacity FIFO resources. The zero value is
// an idle resource.
type Resource struct {
	nextFree Time
	// Busy accumulates total occupied cycles for utilization reporting.
	Busy Time
	// Uses counts accepted requests.
	Uses uint64
}

// Acquire reserves the resource at time now for service cycles and
// returns the completion time (including any queueing delay).
func (r *Resource) Acquire(now Time, service Time) (done Time) {
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	done = start + service
	r.nextFree = done
	r.Busy += service
	r.Uses++
	return done
}

// Utilization returns Busy/elapsed in [0,1] given the elapsed time.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(r.Busy) / float64(elapsed)
}

// Rand is a small deterministic xorshift64* PRNG used wherever the
// simulated software needs randomness (victim selection, R-MAT noise).
// It is seeded explicitly so runs are reproducible.
type Rand struct{ s uint64 }

// NewRand returns a PRNG seeded with seed (0 is remapped to a fixed
// nonzero constant, since xorshift requires nonzero state).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next pseudorandom value.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudorandom int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudorandom float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}
