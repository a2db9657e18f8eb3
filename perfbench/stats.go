package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it.  NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps p = 99.9 of 10000 at rank 9990 despite 99.9 having
// no exact binary form.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailPercentiles
// that leaves at least ten of n samples strictly beyond its nearest
// rank, or 100 (the maximum, no samples beyond) when n is too small for
// any of them.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(p, n) >= 10 {
			return p
		}
	}
	return 100
}
