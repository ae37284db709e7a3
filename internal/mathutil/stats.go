package mathutil

import (
	"math"
	"sort"
)

// ClipInt constrains x to the closed interval [lo, hi]. It panics if lo > hi.
func ClipInt(x, lo, hi int) int {
	if lo > hi {
		panic("mathutil: ClipInt with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
// Kept as obs/hist's bit-for-bit oracle (TestMeanMatchesSliceMean).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using the
// linear-interpolation-between-closest-ranks rule: the sorted slice is
// treated as n−1 equal intervals, the target rank is p/100·(n−1), and the
// result interpolates linearly between the two nearest order statistics
// (numpy's default "linear" method). Out-of-range p clamps: p ≤ 0 returns
// the minimum, p ≥ 100 the maximum.
//
// Degenerate inputs are defined: an empty slice returns 0 for every p, and
// a single-element slice returns that element for every p. The input is not
// modified. obs/hist.Histogram.Percentile follows the same rank rule, so
// histogram-backed percentiles agree with this function at the extremes and
// to bucket resolution in between. Kept as obs/hist's oracle
// (TestPercentileAccuracy).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Max returns the maximum of xs, or 0 for an empty slice.
// Kept as obs/hist's oracle (TestPercentileAccuracy).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
// Kept as obs/hist's oracle (TestPercentileAccuracy).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ZipfWeights returns k weights proportional to 1/(i+1)^s for i in [0,k),
// normalized to sum to 1. It panics for k <= 0 or s < 0.
func ZipfWeights(k int, s float64) []float64 {
	if k <= 0 {
		panic("mathutil: ZipfWeights with k <= 0")
	}
	if s < 0 {
		panic("mathutil: ZipfWeights with s < 0")
	}
	w := make([]float64, k)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}
