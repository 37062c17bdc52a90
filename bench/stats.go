package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the method of Python's
// statistics.quantiles (the default, "exclusive"): the sample at rank
// p·(n+1), interpolated linearly and clamped to the observed range. It is
// the method NOISE.md's spreads, and the bounds set from them, are computed
// with, so the two agree. It returns 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p * float64(len(s)+1) // 1-based
	j := math.Floor(rank)
	j = math.Max(1, math.Min(j, float64(len(s)-1)))
	frac := math.Max(0, math.Min(1, rank-j))
	lo := s[int(j)-1]
	return lo + frac*(s[int(j)]-lo)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread returns the distance between the first and third quartiles as a
// share of the median (0 when the median is 0).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}
