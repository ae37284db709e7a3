package workload

import (
	"fmt"
	"math"
)

// RateProfileNames lists the built-in open-loop arrival-rate shapes
// accepted by RateProfile.
func RateProfileNames() []string {
	return []string{"constant", "ramp", "spike", "diurnal"}
}

// profileShape returns the named profile's raw shape over normalized
// x in [0,1), or nil for "constant".
func profileShape(name string) (func(x float64) float64, error) {
	switch name {
	case "constant":
		return nil, nil
	case "ramp":
		return func(x float64) float64 { return 0.25 + 1.5*x }, nil
	case "spike":
		return func(x float64) float64 {
			d := (x - 0.5) / 0.025
			return 0.7 + 5.0*math.Exp(-d*d/2)
		}, nil
	case "diurnal":
		return func(x float64) float64 { return 1 - 0.6*math.Cos(2*math.Pi*x) }, nil
	default:
		return nil, fmt.Errorf("workload: unknown rate profile %q (have %v)", name, RateProfileNames())
	}
}

// shapeMeanPeak numerically normalizes a shape: its mean and peak over
// [0,1) by the midpoint rule (the shapes are smooth, so a fine grid
// bounds them tightly).
func shapeMeanPeak(raw func(x float64) float64) (mean, peak float64) {
	const steps = 4096
	sum := 0.0
	for i := 0; i < steps; i++ {
		v := raw((float64(i) + 0.5) / steps)
		sum += v
		if v > peak {
			peak = v
		}
	}
	return sum / steps, peak
}

// RateProfile returns the named open-loop arrival-rate shape scaled so its
// mean over [0, duration) is meanRPS, plus a thinning envelope maxRate that
// upper-bounds the rate everywhere — the pair an open-loop Poisson source
// (serve.OpenLoop) samples from.
//
// Shapes:
//
//	constant — flat at meanRPS: the classic open-loop benchmark.
//	ramp     — linear climb from 0.25x to 1.75x the mean: a load test that
//	           walks the system across its saturation knee in one run.
//	spike    — steady 0.7x base with a sharp 5x burst around mid-run: the
//	           overload transient that separates routers and admission
//	           policies (recovery is visible in the windowed snapshots).
//	diurnal  — one sinusoidal day compressed onto the window, 0.4x to 1.6x:
//	           the daily traffic swell capacity planning sizes against.
func RateProfile(name string, meanRPS, duration float64) (RateFn, float64, error) {
	if !positiveFinite(meanRPS) {
		return nil, 0, fmt.Errorf("workload: rate profile mean %g must be positive and finite", meanRPS)
	}
	if !positiveFinite(duration) {
		return nil, 0, fmt.Errorf("workload: rate profile duration %g must be positive and finite", duration)
	}
	raw, err := profileShape(name)
	if err != nil {
		return nil, 0, err
	}
	if raw == nil {
		return func(float64) float64 { return meanRPS }, meanRPS, nil
	}
	// Normalize the shape's mean to 1 and bound its peak for the thinning
	// envelope, with a small safety margin.
	mean, peak := shapeMeanPeak(raw)
	rate := func(t float64) float64 { return meanRPS * raw(t/duration) / mean }
	maxRate := meanRPS * peak / mean * 1.02
	return rate, maxRate, nil
}

// RateProfilePeakFactor returns the named profile's peak-to-mean rate
// ratio: the factor capacity planning multiplies a mean load by to size an
// equal-peak static fleet (1 for "constant"). The autoscaling experiments
// use it to pit elastic fleets against the static cluster a peak-capacity
// planner would deploy.
func RateProfilePeakFactor(name string) (float64, error) {
	raw, err := profileShape(name)
	if err != nil {
		return 0, err
	}
	if raw == nil {
		return 1, nil
	}
	mean, peak := shapeMeanPeak(raw)
	return peak / mean, nil
}
