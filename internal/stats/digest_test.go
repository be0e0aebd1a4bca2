package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// TestDigestGolden pins exact percentiles on known inputs (nearest-rank
// definition: the smallest sample with at least ceil(q*N) samples at or
// below it).
func TestDigestGolden(t *testing.T) {
	cases := []struct {
		name                string
		samples             []uint64
		p50, p90, p99, p999 uint64
		min, max            uint64
		mean                float64
	}{
		{
			name:    "one-to-ten",
			samples: []uint64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6},
			p50:     5, p90: 9, p99: 10, p999: 10,
			min: 1, max: 10, mean: 5.5,
		},
		{
			name:    "single",
			samples: []uint64{42},
			p50:     42, p90: 42, p99: 42, p999: 42,
			min: 42, max: 42, mean: 42,
		},
		{
			name:    "duplicates",
			samples: []uint64{5, 5, 5, 5, 100},
			p50:     5, p90: 100, p99: 100, p999: 100,
			min: 5, max: 100, mean: 24,
		},
		{
			// 100 samples 1..100: p99 is exactly the 99th value, not the max.
			name:    "hundred",
			samples: seq(1, 100),
			p50:     50, p90: 90, p99: 99, p999: 100,
			min: 1, max: 100, mean: 50.5,
		},
		{
			// 1000 samples: p999 is the 999th value.
			name:    "thousand",
			samples: seq(1, 1000),
			p50:     500, p90: 900, p99: 990, p999: 999,
			min: 1, max: 1000, mean: 500.5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d Digest
			for _, v := range tc.samples {
				d.Add(v)
			}
			if got := d.P50(); got != tc.p50 {
				t.Errorf("P50 = %d, want %d", got, tc.p50)
			}
			if got := d.P90(); got != tc.p90 {
				t.Errorf("P90 = %d, want %d", got, tc.p90)
			}
			if got := d.P99(); got != tc.p99 {
				t.Errorf("P99 = %d, want %d", got, tc.p99)
			}
			if got := d.P999(); got != tc.p999 {
				t.Errorf("P999 = %d, want %d", got, tc.p999)
			}
			if got := d.Min(); got != tc.min {
				t.Errorf("Min = %d, want %d", got, tc.min)
			}
			if got := d.Max(); got != tc.max {
				t.Errorf("Max = %d, want %d", got, tc.max)
			}
			if got := d.Mean(); got != tc.mean {
				t.Errorf("Mean = %g, want %g", got, tc.mean)
			}
			if got := d.Count(); got != len(tc.samples) {
				t.Errorf("Count = %d, want %d", got, len(tc.samples))
			}
		})
	}
}

func seq(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// TestDigestEmpty checks the zero-value digest answers without panics.
func TestDigestEmpty(t *testing.T) {
	var d Digest
	if d.Count() != 0 || d.P50() != 0 || d.P999() != 0 || d.Max() != 0 || d.Mean() != 0 {
		t.Fatalf("empty digest must answer zeros: count=%d p50=%d", d.Count(), d.P50())
	}
	d.Merge(nil)
	d.Merge(&Digest{})
	if d.Count() != 0 {
		t.Fatalf("merging empty digests changed the count: %d", d.Count())
	}
}

// refQuantile is the reference nearest-rank implementation the
// property test checks Digest against: the quantile is given as the
// exact rational num/den, so the rank ceil(q*n) is computed in integer
// arithmetic with no possibility of float misrounding.
func refQuantile(samples []uint64, num, den int64) uint64 {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := int64(len(s))
	rank := (num*n + den - 1) / den
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// TestQuantileFloatBoundaries pins the q·n values where the float64
// product rounds to the wrong side of an integer. The historical bug:
// 0.999*1000 evaluates to 999.0000000000001, so a float ceiling
// returned rank 1000 (the max) instead of the exact 999th sample.
func TestQuantileFloatBoundaries(t *testing.T) {
	cases := []struct {
		q    float64
		n    uint64
		rank uint64 // expected 1-based nearest rank = ceil(q*n), exact
	}{
		{0.999, 1000, 999}, // product rounds up past 999
		{0.999, 2000, 1998},
		{0.9, 10, 9},   // 0.9*10 = 9.000000000000002 in float64
		{0.9, 100, 90}, // 0.9*100 = 90.00000000000001 in float64
		{0.07, 100, 7}, // 0.07*100 = 7.000000000000001 in float64
		{0.29, 100, 29},
		{0.58, 50, 29},
		{0.1, 10, 1},
		{0.001, 1000, 1},
		{0.999, 1, 1},
		{0.5, 2, 1},
		{0.5, 3, 2},     // 1.5 -> ceil 2
		{0.75, 4, 3},    // exact integer product
		{0.25, 8, 2},    // exact binary fraction
		{1.0 / 3, 3, 1}, // non-decimal q exercises the FMA fallback
		{1.0 / 3, 6, 2},
		{2.0 / 3, 3, 2},
	}
	for _, tc := range cases {
		var d Digest
		for v := uint64(1); v <= tc.n; v++ {
			d.Add(v)
		}
		// Samples are 1..n, so the sample at rank r is r itself.
		if got := d.Quantile(tc.q); got != tc.rank {
			t.Errorf("Quantile(%v) over 1..%d = %d, want rank %d", tc.q, tc.n, got, tc.rank)
		}
	}
}

// TestDigestProperties checks, over random sample sets: (1) every
// quantile equals the naive sorted-reference answer exactly, (2)
// quantiles are monotone in rank, and (3) the digest is merge-order
// independent (any partition, merged in any order, answers identically).
func TestDigestProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Each quantile both as the float64 callers pass and as the exact
	// rational the reference uses.
	type qq struct {
		q        float64
		num, den int64
	}
	qqs := []qq{
		{0.001, 1, 1000}, {0.01, 1, 100}, {0.1, 1, 10}, {0.25, 1, 4},
		{0.5, 1, 2}, {0.75, 3, 4}, {0.9, 9, 10}, {0.99, 99, 100},
		{0.999, 999, 1000}, {1.0, 1, 1},
	}
	quantiles := make([]float64, len(qqs))
	for i, x := range qqs {
		quantiles[i] = x.q
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		samples := make([]uint64, n)
		for i := range samples {
			samples[i] = uint64(rng.Intn(1_000_000))
		}

		var whole Digest
		for _, v := range samples {
			whole.Add(v)
		}

		// (1) exactness against the integer-rational reference.
		for _, x := range qqs {
			if got, want := whole.Quantile(x.q), refQuantile(samples, x.num, x.den); got != want {
				t.Fatalf("trial %d: Quantile(%g) = %d, want %d (n=%d)", trial, x.q, got, want, n)
			}
		}

		// (2) monotone in rank.
		prev := uint64(0)
		for _, q := range quantiles {
			v := whole.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: Quantile(%g) = %d < previous %d (not monotone)", trial, q, v, prev)
			}
			prev = v
		}

		// (3) merge-order independence: split into 3 random chunks and
		// merge them in two different orders.
		cut1, cut2 := rng.Intn(n+1), rng.Intn(n+1)
		if cut1 > cut2 {
			cut1, cut2 = cut2, cut1
		}
		parts := [][]uint64{samples[:cut1], samples[cut1:cut2], samples[cut2:]}
		digests := make([]*Digest, 3)
		for i, p := range parts {
			digests[i] = &Digest{}
			for _, v := range p {
				digests[i].Add(v)
			}
		}
		var fwd, rev Digest
		fwd.Merge(digests[0])
		fwd.Merge(digests[1])
		fwd.Merge(digests[2])
		rev.Merge(digests[2])
		rev.Merge(digests[0])
		rev.Merge(digests[1])
		for _, q := range quantiles {
			a, b, w := fwd.Quantile(q), rev.Quantile(q), whole.Quantile(q)
			if a != w || b != w {
				t.Fatalf("trial %d: merge-order dependence at q=%g: fwd=%d rev=%d whole=%d",
					trial, q, a, b, w)
			}
		}
		if fwd.Count() != n || rev.Count() != n {
			t.Fatalf("trial %d: merged counts %d/%d, want %d", trial, fwd.Count(), rev.Count(), n)
		}
	}
}
