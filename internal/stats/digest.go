package stats

import "sort"

// Digest is an exact latency digest: it keeps every sample (the
// simulator is deterministic, so there is no reason to sketch or
// sample) and answers nearest-rank percentile queries over the sorted
// multiset, so the result is independent of insertion order — a
// property the open-load determinism gates rely on.
//
// The zero value is an empty digest ready for use.
type Digest struct {
	samples []uint64
	sorted  bool
}

// Add inserts one sample.
func (d *Digest) Add(v uint64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Sum returns the sample total.
func (d *Digest) Sum() uint64 {
	var s uint64
	for _, v := range d.samples {
		s += v
	}
	return s
}

// Mean returns the sample mean (0 when empty).
func (d *Digest) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return float64(d.Sum()) / float64(len(d.samples))
}

// Max returns the largest sample (0 when empty).
func (d *Digest) Max() uint64 {
	d.ensureSorted()
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[len(d.samples)-1]
}

func (d *Digest) ensureSorted() {
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
}

// perMille returns the exact nearest-rank k/1000-quantile (0 < k <=
// 1000): the smallest sample v such that at least ceil(k·n/1000)
// samples are <= v. The rank is integer arithmetic, so no float product
// can round it to the wrong side (0.999·1000 is 999.0000000000001 in
// float64). An empty digest returns 0.
func (d *Digest) perMille(k int) uint64 {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[(k*n+999)/1000-1]
}

// P50 returns the exact median (nearest-rank).
func (d *Digest) P50() uint64 { return d.perMille(500) }

// P90 returns the exact 90th percentile.
func (d *Digest) P90() uint64 { return d.perMille(900) }

// P99 returns the exact 99th percentile.
func (d *Digest) P99() uint64 { return d.perMille(990) }

// P999 returns the exact 99.9th percentile.
func (d *Digest) P999() uint64 { return d.perMille(999) }
