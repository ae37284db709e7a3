// Package hist implements a deterministic, bounded-memory streaming
// histogram for latency-style values (positive seconds). Values land in a
// fixed array of base-2 logarithmic buckets — 32 linear sub-buckets per
// octave, giving ≤ ~1.6% relative quantile error — so a histogram's memory
// is a small constant regardless of how many observations it absorbs.
//
// Bucketing is integer-exact: the bucket index is derived from math.Frexp
// (the value's binary exponent and mantissa), never from math.Log, so the
// same value maps to the same bucket on every platform and the structure is
// byte-for-byte deterministic. Buckets hold integer counts, which makes
// quantile results independent of observation order: two histograms fed
// the same multiset of values in any order produce identical Digests.
package hist

import "math"

const (
	// subBits sub-divides each octave into 1<<subBits linear buckets.
	subBits  = 5
	subCount = 1 << subBits
	// minExp/maxExp bound the covered binary exponents: values below
	// 2^(minExp-1) (~0.5 µs) collapse into the first bucket, values at or
	// above 2^(maxExp-2) (~36 h) into the last. Quantiles at the extremes
	// stay exact regardless, because rank 0 and rank n−1 answer from the
	// tracked exact min/max.
	minExp = -20
	maxExp = 18
	// numBuckets is the fixed bucket-array length — the histogram's whole
	// memory footprint, independent of observation count.
	numBuckets = (maxExp - minExp) * subCount
)

// Histogram is a streaming log-bucketed histogram. The zero value is ready
// to use. Histograms are not safe for concurrent use.
type Histogram struct {
	counts [numBuckets]int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. The sub-bucket arithmetic is
// exact: frac−0.5 is exact by Sterbenz's lemma and the scale factor is a
// power of two, so truncation is the only rounding and it is deterministic.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0 // zero, negative and NaN observations share the first bucket
	}
	if math.IsInf(v, 1) {
		return numBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac × 2^exp, frac ∈ [0.5, 1)
	if exp < minExp {
		return 0
	}
	if exp >= maxExp {
		return numBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * subCount))
	return (exp-minExp)*subCount + sub
}

// bucketLower returns bucket i's inclusive lower value bound.
func bucketLower(i int) float64 {
	exp := minExp + i/subCount
	sub := i % subCount
	return math.Ldexp(0.5+float64(sub)/(2*subCount), exp)
}

// bucketUpper returns bucket i's exclusive upper value bound.
func bucketUpper(i int) float64 { return bucketLower(i + 1) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
}

// Remove retracts one previously observed value — the eviction half of a
// sliding-window histogram. The exact min/max are not recomputed (they may
// go stale toward the envelope of everything ever observed); quantiles stay
// correct to bucket resolution. Removing a value that was never observed is
// a caller error; the bucket floor at zero keeps the structure consistent.
func (h *Histogram) Remove(v float64) {
	i := bucketIndex(v)
	if h.counts[i] == 0 || h.count == 0 {
		return
	}
	h.counts[i]--
	h.count--
	h.sum -= v
}

// Count returns the number of live observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the running sum of live observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean of live observations, or 0 when empty.
// Values are summed in observation order, so a histogram fed the same
// sequence as a slice reproduces mathutil.Mean bit-for-bit.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// minimum returns the smallest value observed (exact), or 0 when empty. After
// Remove it may be stale — see Remove.
func (h *Histogram) minimum() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// maximum returns the largest value observed (exact), or 0 when empty. After
// Remove it may be stale — see Remove.
func (h *Histogram) maximum() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// valueAt returns the value at 0-based sorted ordinal k. The extreme
// ordinals answer from the exact min/max; interior ordinals answer with the
// midpoint of the covering bucket, clamped into [min, max].
func (h *Histogram) valueAt(k int64) float64 {
	if k <= 0 {
		return h.min
	}
	if k >= h.count-1 {
		return h.max
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > k {
			mid := (bucketLower(i) + bucketUpper(i)) / 2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// Percentile returns the p-th percentile (p in [0, 100]) of the live
// observations, following mathutil.Percentile's rank rule: rank =
// p/100·(n−1) with linear interpolation between the two closest ordinals.
// It returns 0 when empty; a single observation answers every p exactly.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := p / 100 * float64(h.count-1)
	lo := int64(math.Floor(rank))
	hi := int64(math.Ceil(rank))
	vlo := h.valueAt(lo)
	if lo == hi {
		return vlo
	}
	frac := rank - float64(lo)
	vhi := h.valueAt(hi)
	return vlo*(1-frac) + vhi*frac
}

// Digest is a histogram's fixed-size percentile summary. Every field is
// derived from bucket counts and the exact min/max only, so digests are
// identical across any observation order of the same values.
type Digest struct {
	// Count is the number of live observations.
	Count int64
	// Min and Max are the exact extreme observations.
	Min, Max float64
	// P50..P999 are the 50th/90th/99th/99.9th percentiles.
	P50, P90, P99, P999 float64
}

// Digest computes the histogram's percentile summary.
func (h *Histogram) Digest() Digest {
	return Digest{
		Count: h.count,
		Min:   h.minimum(),
		Max:   h.maximum(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// Buckets calls fn for every non-empty bucket in increasing value order with
// the bucket's exclusive upper bound and its count — the iteration Prometheus
// histogram exposition builds on.
func (h *Histogram) Buckets(fn func(upper float64, count int64)) {
	for i, c := range h.counts {
		if c != 0 {
			fn(bucketUpper(i), c)
		}
	}
}
