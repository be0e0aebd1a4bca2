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
		max                 uint64
		mean                float64
	}{
		{
			name:    "one-to-ten",
			samples: []uint64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6},
			p50:     5, p90: 9, p99: 10, p999: 10,
			max: 10, mean: 5.5,
		},
		{
			name:    "single",
			samples: []uint64{42},
			p50:     42, p90: 42, p99: 42, p999: 42,
			max: 42, mean: 42,
		},
		{
			name:    "duplicates",
			samples: []uint64{5, 5, 5, 5, 100},
			p50:     5, p90: 100, p99: 100, p999: 100,
			max: 100, mean: 24,
		},
		{
			// 100 samples 1..100: p99 is exactly the 99th value, not the max.
			name:    "hundred",
			samples: seq(1, 100),
			p50:     50, p90: 90, p99: 99, p999: 100,
			max: 100, mean: 50.5,
		},
		{
			// 1000 samples: p999 is the 999th value.
			name:    "thousand",
			samples: seq(1, 1000),
			p50:     500, p90: 900, p99: 990, p999: 999,
			max: 1000, mean: 500.5,
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
			if got := d.Max(); got != tc.max {
				t.Errorf("Max = %d, want %d", got, tc.max)
			}
			if got := d.Mean(); got != tc.mean {
				t.Errorf("Mean = %g, want %g", got, tc.mean)
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
	if d.Sum() != 0 || d.P50() != 0 || d.P999() != 0 || d.Max() != 0 || d.Mean() != 0 {
		t.Fatalf("empty digest must answer zeros: sum=%d p50=%d", d.Sum(), d.P50())
	}
}

// refQuantile is the reference nearest-rank implementation the
// property test checks Digest against: the quantile is given as the
// exact rational num/den, and the rank is the smallest r with
// r·den >= num·n, found by counting up rather than by a ceiling.
func refQuantile(samples []uint64, num, den int64) uint64 {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := int64(len(s))
	rank := int64(1)
	for rank*den < num*n {
		rank++
	}
	return s[rank-1]
}

// TestQuantileFloatBoundaries pins the ranks where a float64 q·n
// product rounds to the wrong side of an integer. The historical bug:
// 0.999*1000 evaluates to 999.0000000000001, so a float ceiling
// returned rank 1000 (the max) instead of the exact 999th sample.
func TestQuantileFloatBoundaries(t *testing.T) {
	cases := []struct {
		k    int // per mille
		n    uint64
		rank uint64 // expected 1-based nearest rank = ceil(k*n/1000), exact
	}{
		{999, 1000, 999}, // 0.999*1000 rounds up past 999
		{999, 2000, 1998},
		{900, 10, 9},   // 0.9*10 = 9.000000000000002 in float64
		{900, 100, 90}, // 0.9*100 = 90.00000000000001 in float64
		{990, 100, 99},
		{999, 1, 1},
		{500, 2, 1},
		{500, 3, 2}, // 1.5 -> ceil 2
		{990, 101, 100},
	}
	for _, tc := range cases {
		var d Digest
		for v := uint64(1); v <= tc.n; v++ {
			d.Add(v)
		}
		// Samples are 1..n, so the sample at rank r is r itself.
		if got := d.perMille(tc.k); got != tc.rank {
			t.Errorf("perMille(%d) over 1..%d = %d, want rank %d", tc.k, tc.n, got, tc.rank)
		}
	}
}

// TestDigestProperties checks, over random sample sets: (1) every
// percentile equals the naive sorted-reference answer exactly, (2)
// percentiles are monotone in rank, and (3) the digest is insertion-order
// independent.
func TestDigestProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ks := []int{1, 10, 100, 250, 500, 750, 900, 990, 999, 1000}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		samples := make([]uint64, n)
		for i := range samples {
			samples[i] = uint64(rng.Intn(1_000_000))
		}

		var whole, shuffled Digest
		for _, v := range samples {
			whole.Add(v)
		}
		for _, i := range rng.Perm(n) {
			shuffled.Add(samples[i])
		}

		prev := uint64(0)
		for _, k := range ks {
			got := whole.perMille(k)
			// (1) exactness against the integer-rational reference.
			if want := refQuantile(samples, int64(k), 1000); got != want {
				t.Fatalf("trial %d: perMille(%d) = %d, want %d (n=%d)", trial, k, got, want, n)
			}
			// (2) monotone in rank.
			if got < prev {
				t.Fatalf("trial %d: perMille(%d) = %d < previous %d (not monotone)", trial, k, got, prev)
			}
			prev = got
			// (3) insertion-order independence.
			if s := shuffled.perMille(k); s != got {
				t.Fatalf("trial %d: perMille(%d) = %d shuffled, %d in order", trial, k, s, got)
			}
		}
	}
}
