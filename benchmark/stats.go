package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), so a
// spread computed here equals the one the acceptance driver computes.
// Fewer than two samples collapse to the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle sample (mean of the two middle ones when even).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := rankOf(len(s), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples:
// ceil(p/100 * n), with the product's rounding error taken off first
// (99.9 % of 10000 must be 9990, not 9991).
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond is how many samples lie strictly above the nearest-rank p-th
// percentile position.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailPercentiles are the tail points a report may quote, lowest first.
var tailPercentiles = []float64{90, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten samples beyond it, or ok=false when even p90 has not
// (a tail read off fewer than ten samples is noise, not a percentile).
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(n, c) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// summary is a timing metric's report: the median over its samples
// with the quartiles and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, m, q3 := quartiles(xs)
	return summary{Median: m, Q1: q1, Q3: q3, N: len(xs)}
}
