package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"adaserve/internal/mathutil"
)

func TestPoissonTraceRate(t *testing.T) {
	rng := mathutil.NewRNG(1)
	ts := PoissonTrace(rng, 10, 1000)
	rate := float64(len(ts)) / 1000
	if math.Abs(rate-10) > 0.5 {
		t.Fatalf("empirical rate %.2f, want ~10", rate)
	}
	if !sort.Float64sAreSorted(ts) {
		t.Fatal("timestamps not sorted")
	}
}

func TestPoissonTraceEmptyEdge(t *testing.T) {
	rng := mathutil.NewRNG(1)
	if PoissonTrace(rng, 0, 10) != nil {
		t.Fatal("zero rate should produce nothing")
	}
	if PoissonTrace(rng, 5, 0) != nil {
		t.Fatal("zero duration should produce nothing")
	}
}

func TestNonHomogeneousPoissonFollowsRate(t *testing.T) {
	rng := mathutil.NewRNG(2)
	// Step function: rate 2 in the first half, 8 in the second.
	rate := func(tm float64) float64 {
		if tm < 500 {
			return 2
		}
		return 8
	}
	ts := NonHomogeneousPoisson(rng, rate, 8, 1000)
	var early, late int
	for _, x := range ts {
		if x < 500 {
			early++
		} else {
			late++
		}
	}
	ratio := float64(late) / float64(early)
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("late/early ratio %.2f, want ~4", ratio)
	}
}

func TestRealTraceShapeNormalized(t *testing.T) {
	shape := realTraceShape()
	var sum float64
	const steps = 2400
	for i := 0; i < steps; i++ {
		v := shape(1200 * float64(i) / steps)
		if v < 0 {
			t.Fatal("negative rate")
		}
		sum += v
	}
	mean := sum / steps
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("shape mean %.3f, want 1", mean)
	}
}

func TestRealTraceShapeIsBursty(t *testing.T) {
	shape := realTraceShape()
	var peak, trough float64 = 0, math.Inf(1)
	for i := 0; i < 2400; i++ {
		v := shape(1200 * float64(i) / 2400)
		if v > peak {
			peak = v
		}
		if v < trough {
			trough = v
		}
	}
	// Figure 7 swings between roughly 20 and 100+ requests per bin.
	if peak/trough < 3 {
		t.Fatalf("peak/trough %.1f, want >= 3 (bursty)", peak/trough)
	}
}

func TestRealTraceMeanRPS(t *testing.T) {
	for _, rps := range []float64{2.0, 4.0} {
		rng := mathutil.NewRNG(7)
		ts := RealTrace(rng, rps, 300)
		got := float64(len(ts)) / 300
		if math.Abs(got-rps) > rps*0.2 {
			t.Fatalf("target %.1f rps, got %.2f", rps, got)
		}
		if !sort.Float64sAreSorted(ts) {
			t.Fatal("timestamps not sorted")
		}
	}
}

func TestRealTraceCompressesShape(t *testing.T) {
	// The full 20-minute shape must play out within any duration: the
	// compressed trace stays bursty (interior peak well above the median
	// bin), rather than flattening or truncating to the shape's quiet head.
	rng := mathutil.NewRNG(9)
	ts := RealTrace(rng, 10, 120)
	bins := BinCounts(ts, 120, 10)
	peakBin := 0
	var counts []float64
	for i, c := range bins {
		if c > bins[peakBin] {
			peakBin = i
		}
		counts = append(counts, float64(c))
	}
	if peakBin == 0 || peakBin == len(bins)-1 {
		t.Fatalf("peak bin %d at the window edge", peakBin)
	}
	med := mathutil.Percentile(counts, 50)
	if float64(bins[peakBin]) < 1.8*med {
		t.Fatalf("peak bin %d count %d not bursty vs median %.0f", peakBin, bins[peakBin], med)
	}
}

func TestSyntheticCategoryTracePeaks(t *testing.T) {
	rng := mathutil.NewRNG(11)
	perCat := SyntheticCategoryTrace(rng, 4.0, 360)
	if len(perCat) != 3 {
		t.Fatalf("%d categories", len(perCat))
	}
	peakOf := func(ts []float64) float64 {
		bins := BinCounts(ts, 360, 30)
		best := 0
		for i, c := range bins {
			if c > bins[best] {
				best = i
			}
		}
		return (float64(best) + 0.5) * 30
	}
	chatPeak := peakOf(perCat[1])          // early
	codingPeak := peakOf(perCat[0])        // middle
	summarizationPeak := peakOf(perCat[2]) // late
	if !(chatPeak < codingPeak && codingPeak < summarizationPeak) {
		t.Fatalf("peaks chat=%.0f coding=%.0f summarization=%.0f not ordered",
			chatPeak, codingPeak, summarizationPeak)
	}
}

func TestBinCounts(t *testing.T) {
	bins := BinCounts([]float64{0.5, 1.5, 1.9, 5}, 6, 2)
	if len(bins) != 3 {
		t.Fatalf("bins %v", bins)
	}
	if bins[0] != 3 || bins[1] != 0 || bins[2] != 1 {
		t.Fatalf("bins %v", bins)
	}
	if BinCounts(nil, 0, 1) != nil {
		t.Fatal("degenerate inputs should return nil")
	}
}

func TestBinCountsBoundary(t *testing.T) {
	// An arrival exactly at the duration boundary clamps into the final
	// bin; arrivals outside [0, duration] drop.
	bins := BinCounts([]float64{-0.1, 0, 6, 6.1}, 6, 2)
	if bins[0] != 1 || bins[1] != 0 || bins[2] != 1 {
		t.Fatalf("bins %v, want [1 0 1]", bins)
	}
	// A ragged final bin (duration not a multiple of binWidth) still
	// catches its boundary arrival.
	bins = BinCounts([]float64{5}, 5, 2)
	if len(bins) != 3 || bins[2] != 1 {
		t.Fatalf("ragged bins %v", bins)
	}
}

// TestNonFiniteRatesReturnPromptly pins the guards against NaN and ±Inf
// rates and durations, which would spin the thinning loop forever (NaN
// fails every comparison, and an infinite rate never advances the clock):
// every sampler returns no arrivals and RateProfile errors, within the
// deadline.
func TestNonFiniteRatesReturnPromptly(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := mathutil.NewRNG(1)
		flat := func(float64) float64 { return 1 }
		for _, v := range bad {
			if ts := NonHomogeneousPoisson(rng, flat, v, 10); ts != nil {
				t.Errorf("maxRate %g: %d arrivals, want none", v, len(ts))
			}
			if ts := NonHomogeneousPoisson(rng, flat, 1, v); ts != nil {
				t.Errorf("duration %g: %d arrivals, want none", v, len(ts))
			}
			if ts := RealTrace(rng, v, 10); len(ts) != 0 {
				t.Errorf("RealTrace rps %g: %d arrivals, want none", v, len(ts))
			}
			if ts := RealTrace(rng, 1, v); len(ts) != 0 {
				t.Errorf("RealTrace duration %g: %d arrivals, want none", v, len(ts))
			}
			if _, _, err := RateProfile("spike", v, 10); err == nil {
				t.Errorf("RateProfile mean %g accepted", v)
			}
			if _, _, err := RateProfile("spike", 1, v); err == nil {
				t.Errorf("RateProfile duration %g accepted", v)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a sampler did not return within 5s on a non-finite input")
	}
}
