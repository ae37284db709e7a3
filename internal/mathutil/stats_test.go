package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClip(t *testing.T) {
	cases := []struct{ x, lo, hi, want int }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := ClipInt(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("ClipInt(%d,%d,%d) = %d, want %d", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClipPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ClipInt(0, 1, 0) did not panic")
		}
	}()
	ClipInt(0, 1, 0)
}

func TestClipIntProperty(t *testing.T) {
	err := quick.Check(func(x int16, a, b int16) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := ClipInt(int(x), lo, hi)
		return got >= lo && got <= hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestPercentileDegenerateInputs(t *testing.T) {
	// Empty input: 0 for every p, including the clamped extremes.
	for _, p := range []float64{-1, 0, 50, 100, 101} {
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("Percentile(nil, %g) = %g, want 0", p, got)
		}
		if got := Percentile([]float64{}, p); got != 0 {
			t.Errorf("Percentile([], %g) = %g, want 0", p, got)
		}
	}
	// Single element: that element for every p — rank p/100·(n−1) is always 0.
	for _, p := range []float64{-1, 0, 37.5, 50, 99.9, 100, 101} {
		if got := Percentile([]float64{0.042}, p); got != 0.042 {
			t.Errorf("Percentile([0.042], %g) = %g, want 0.042", p, got)
		}
	}
	// Out-of-range p clamps to min/max.
	xs := []float64{5, 1, 3}
	if Percentile(xs, -10) != 1 || Percentile(xs, 110) != 5 {
		t.Errorf("clamped extremes = %g/%g, want 1/5", Percentile(xs, -10), Percentile(xs, 110))
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	err := quick.Check(func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Abs(math.Mod(a, 100))
		pb := math.Abs(math.Mod(b, 100))
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-12
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Max(xs) != 7 {
		t.Errorf("Max = %g", Max(xs))
	}
	if Min(xs) != -1 {
		t.Errorf("Min = %g", Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("Max/Min of empty should be 0")
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1.0)
	if sum := Mean(w) * float64(len(w)); math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g", sum)
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatalf("weights not decreasing at %d: %v", i, w)
		}
	}
	// s=0 gives uniform weights.
	u := ZipfWeights(4, 0)
	for _, x := range u {
		if math.Abs(x-0.25) > 1e-9 {
			t.Fatalf("s=0 not uniform: %v", u)
		}
	}
}

func TestZipfWeightsSharpness(t *testing.T) {
	soft := ZipfWeights(16, 1.0)
	sharp := ZipfWeights(16, 3.0)
	if sharp[0] <= soft[0] {
		t.Fatalf("higher exponent should concentrate mass: %g vs %g", sharp[0], soft[0])
	}
}

func TestZipfWeightsPanics(t *testing.T) {
	for _, bad := range []struct {
		k int
		s float64
	}{{0, 1}, {-1, 1}, {3, -0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZipfWeights(%d,%g) did not panic", bad.k, bad.s)
				}
			}()
			ZipfWeights(bad.k, bad.s)
		}()
	}
}
