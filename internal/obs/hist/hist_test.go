package hist

import (
	"math"
	"math/rand"
	"testing"

	"adaserve/internal/mathutil"
)

func TestEmpty(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.minimum() != 0 || h.maximum() != 0 {
		t.Fatalf("empty histogram not zero: %+v", h.Digest())
	}
	if p := h.Percentile(50); p != 0 {
		t.Fatalf("empty Percentile(50) = %g, want 0", p)
	}
	d := h.Digest()
	if d != (Digest{}) {
		t.Fatalf("empty Digest = %+v, want zero", d)
	}
}

func TestSingleObservationExact(t *testing.T) {
	h := New()
	h.Observe(0.042)
	for _, p := range []float64{0, 1, 50, 90, 99, 99.9, 100} {
		if got := h.Percentile(p); got != 0.042 {
			t.Fatalf("Percentile(%g) = %g, want exact 0.042", p, got)
		}
	}
	if h.Mean() != 0.042 || h.minimum() != 0.042 || h.maximum() != 0.042 {
		t.Fatalf("single-value stats: %+v", h.Digest())
	}
}

func TestBucketBounds(t *testing.T) {
	// Every in-range value must land in a bucket whose bounds contain it.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := math.Exp(rng.Float64()*20 - 10) // ~[4.5e-5, 2.2e4]
		b := bucketIndex(v)
		if lo, hi := bucketLower(b), bucketUpper(b); v < lo || v >= hi {
			t.Fatalf("v=%g in bucket %d [%g, %g)", v, b, lo, hi)
		}
	}
	// Exact octave boundaries land in the bucket they open.
	for _, v := range []float64{0.5, 1, 2, 1024} {
		b := bucketIndex(v)
		if bucketLower(b) != v {
			t.Fatalf("boundary %g: bucket %d lower %g", v, b, bucketLower(b))
		}
	}
}

func TestOutOfRangeValues(t *testing.T) {
	h := New()
	h.Observe(0)
	h.Observe(-1)
	h.Observe(1e-12)       // below the covered range
	h.Observe(1e9)         // above the covered range
	h.Observe(math.Inf(1)) // clamps to the top bucket
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.minimum() != -1 || !math.IsInf(h.maximum(), 1) {
		t.Fatalf("min/max = %g/%g", h.minimum(), h.maximum())
	}
	var total int64
	h.Buckets(func(_ float64, c int64) { total += c })
	if total != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", total)
	}
}

func TestPercentileAccuracy(t *testing.T) {
	// Against the exact slice implementation: relative error bounded by the
	// sub-bucket width (plus interpolation), well under 2%.
	rng := rand.New(rand.NewSource(42))
	h := New()
	var xs []float64
	for i := 0; i < 5000; i++ {
		v := 0.01 * math.Exp(rng.NormFloat64()) // lognormal around 10ms
		xs = append(xs, v)
		h.Observe(v)
	}
	for _, p := range []float64{1, 10, 50, 90, 99, 99.9} {
		want := mathutil.Percentile(xs, p)
		got := h.Percentile(p)
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Errorf("p%g: hist %g vs exact %g (rel err %.3f)", p, got, want, rel)
		}
	}
	// Extremes are exact.
	if h.Percentile(0) != mathutil.Min(xs) || h.Percentile(100) != mathutil.Max(xs) {
		t.Fatalf("extremes not exact: %g/%g", h.Percentile(0), h.Percentile(100))
	}
}

func TestMeanMatchesSliceMean(t *testing.T) {
	// Same observation order ⇒ bit-identical mean (the property the metrics
	// package's byte-identical goldens rely on).
	rng := rand.New(rand.NewSource(3))
	h := New()
	var xs []float64
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 0.3
		xs = append(xs, v)
		h.Observe(v)
	}
	if h.Mean() != mathutil.Mean(xs) {
		t.Fatalf("Mean %v != mathutil.Mean %v", h.Mean(), mathutil.Mean(xs))
	}
}

func TestRemoveWindow(t *testing.T) {
	h := New()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	for i := 1; i <= 50; i++ {
		h.Remove(float64(i) * 0.001)
	}
	if h.Count() != 50 {
		t.Fatalf("count = %d", h.Count())
	}
	// The live window is (50ms, 100ms]; its median should sit near 75ms to
	// bucket resolution.
	if p := h.Percentile(50); p < 0.070 || p > 0.080 {
		t.Fatalf("windowed p50 = %g", p)
	}
	// Removing everything returns the histogram to empty counts.
	for i := 51; i <= 100; i++ {
		h.Remove(float64(i) * 0.001)
	}
	if h.Count() != 0 {
		t.Fatalf("count after full removal = %d", h.Count())
	}
	var total int64
	h.Buckets(func(_ float64, c int64) { total += c })
	if total != 0 {
		t.Fatalf("bucket counts after full removal = %d", total)
	}
}

func TestBucketsCumulative(t *testing.T) {
	h := New()
	vals := []float64{0.001, 0.01, 0.01, 0.1, 1.5}
	for _, v := range vals {
		h.Observe(v)
	}
	var total int64
	last := 0.0
	h.Buckets(func(upper float64, c int64) {
		if upper <= last {
			t.Fatalf("bucket upper bounds not increasing: %g after %g", upper, last)
		}
		last = upper
		total += c
	})
	if total != int64(len(vals)) {
		t.Fatalf("bucket counts sum %d, want %d", total, len(vals))
	}
}

// TestRemoveGuards pins the no-op guards: retracting from an empty histogram
// or from a bucket that was never filled must not drive counters negative.
func TestRemoveGuards(t *testing.T) {
	h := New()
	h.Remove(1.0) // empty histogram: no-op
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("Remove on empty histogram mutated state: count=%d sum=%g", h.Count(), h.Sum())
	}
	h.Observe(1.0)
	h.Remove(1e6) // value in an untouched bucket: no-op
	if h.Count() != 1 {
		t.Fatalf("Remove of never-observed value changed count: %d", h.Count())
	}
	h.Remove(1.0)
	if h.Count() != 0 {
		t.Fatalf("matched Remove did not retract: count=%d", h.Count())
	}
}
