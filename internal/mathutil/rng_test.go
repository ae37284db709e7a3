package mathutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean %g too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential draw %g", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Fatalf("exponential mean %g too far from 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.normFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(3, 0.5); v <= 0 {
			t.Fatalf("non-positive log-normal draw %g", v)
		}
	}
}

func TestSplitMix64Stateless(t *testing.T) {
	if SplitMix64(1) != SplitMix64(1) {
		t.Fatal("SplitMix64 not deterministic")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("SplitMix64 collision on adjacent inputs")
	}
}

func TestHash2Properties(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		// Deterministic and (heuristically) order-sensitive.
		return Hash2(a, b) == Hash2(a, b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Fatal("Hash2 is order-insensitive for (1,2)")
	}
}

func TestHash3Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for a := uint64(0); a < 10; a++ {
		for b := uint64(0); b < 10; b++ {
			for c := uint64(0); c < 10; c++ {
				h := Hash3(a, b, c)
				if seen[h] {
					t.Fatalf("Hash3 collision at (%d,%d,%d)", a, b, c)
				}
				seen[h] = true
			}
		}
	}
}
