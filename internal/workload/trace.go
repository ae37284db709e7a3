package workload

import (
	"math"

	"adaserve/internal/mathutil"
)

// RateFn is a time-varying arrival rate in requests/second.
type RateFn func(t float64) float64

// NonHomogeneousPoisson samples arrival timestamps on [0, duration) from a
// time-varying rate via Lewis thinning. maxRate must upper-bound rate over
// the window. A maxRate or duration that is not positive and finite yields
// no arrivals.
func NonHomogeneousPoisson(rng *mathutil.RNG, rate RateFn, maxRate, duration float64) []float64 {
	if !positiveFinite(maxRate) || !positiveFinite(duration) {
		return nil
	}
	var out []float64
	t := 0.0
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= duration {
			break
		}
		if rng.Float64() < rate(t)/maxRate {
			out = append(out, t)
		}
	}
	return out
}

// positiveFinite reports whether v is positive and finite (false for NaN).
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// PoissonTrace samples a homogeneous Poisson arrival process.
func PoissonTrace(rng *mathutil.RNG, rps, duration float64) []float64 {
	return NonHomogeneousPoisson(rng, func(float64) float64 { return rps }, rps, duration)
}

// realTraceShape reproduces the bursty shape of the paper's real-world trace
// (Figure 7): a slowly drifting base load with several sharp bursts, over a
// 20-minute window, normalized so its mean is 1 (scale by target RPS).
func realTraceShape() RateFn {
	type burst struct{ center, width, height float64 }
	bursts := []burst{
		{center: 90, width: 25, height: 2.6},
		{center: 260, width: 35, height: 1.8},
		{center: 430, width: 20, height: 3.1},
		{center: 620, width: 45, height: 1.5},
		{center: 800, width: 25, height: 2.2},
		{center: 950, width: 30, height: 2.8},
		{center: 1100, width: 20, height: 1.9},
	}
	raw := func(t float64) float64 {
		v := 0.55 + 0.25*math.Sin(2*math.Pi*t/700)
		for _, b := range bursts {
			d := (t - b.center) / b.width
			v += b.height * math.Exp(-d*d/2)
		}
		return v
	}
	// Normalize mean to 1 over the 20-minute window.
	const window = 1200.0
	var sum float64
	const steps = 2400
	for i := 0; i < steps; i++ {
		sum += raw(window * float64(i) / steps)
	}
	mean := sum / steps
	return func(t float64) float64 { return raw(t) / mean }
}

// RealTrace samples timestamps over duration seconds whose time-varying
// rate follows the Figure 7 shape rescaled to the target mean RPS. The
// 20-minute shape is compressed (or stretched) onto the requested duration,
// as the paper truncates and rescales its trace to different average RPS.
func RealTrace(rng *mathutil.RNG, meanRPS, duration float64) []float64 {
	shape := realTraceShape()
	rate := func(t float64) float64 {
		return meanRPS * shape(1200*t/duration)
	}
	// Conservative bound: shape peaks below 6x mean.
	return NonHomogeneousPoisson(rng, rate, meanRPS*6, duration)
}

// SyntheticCategoryTrace reproduces Figure 13: over a 6-minute window, the
// three categories peak at different times (chat early, coding mid,
// summarization late), each a Gaussian bump over a small base rate.
// It returns per-category timestamp slices indexed by category.
func SyntheticCategoryTrace(rng *mathutil.RNG, peakRPS float64, duration float64) [][]float64 {
	type bump struct{ center, width float64 }
	bumps := []bump{
		{center: duration * 3 / 6, width: duration / 12}, // coding (cat 1) mid
		{center: duration * 1 / 6, width: duration / 12}, // chat (cat 2) early
		{center: duration * 5 / 6, width: duration / 12}, // summarization late
	}
	out := make([][]float64, len(bumps))
	for i, b := range bumps {
		rate := func(t float64) float64 {
			d := (t - b.center) / b.width
			return 0.2 + peakRPS*math.Exp(-d*d/2)
		}
		out[i] = NonHomogeneousPoisson(rng, rate, peakRPS+0.2, duration)
	}
	return out
}

// BinCounts histograms timestamps into fixed-width bins for rendering trace
// shapes (Figures 7 and 13). Timestamps in [0, duration] all land in a bin
// — an arrival exactly on the duration boundary (common in imported
// traces, whose last arrival defines the duration) clamps into the final
// bin rather than vanishing; only timestamps outside the window drop.
func BinCounts(ts []float64, duration, binWidth float64) []int {
	if binWidth <= 0 || duration <= 0 {
		return nil
	}
	n := int(math.Ceil(duration / binWidth))
	bins := make([]int, n)
	for _, t := range ts {
		if t < 0 || t > duration {
			continue
		}
		i := int(t / binWidth)
		if i >= n {
			i = n - 1
		}
		bins[i]++
	}
	return bins
}
