// Package mathutil provides small deterministic numeric helpers shared by the
// AdaServe simulator: a seedable splitmix64/xoshiro-style RNG (so results do
// not depend on the Go version's math/rand internals), summary statistics,
// and Zipf weight tables used by the synthetic language models.
package mathutil

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based on
// splitmix64. It is not safe for concurrent use; create one per goroutine.
//
// The zero value is a valid generator seeded with 0; prefer NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams on all platforms.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// next returns the next value in the stream.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathutil: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed value with rate 1, via
// inverse-transform sampling.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// normFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1 using the Box-Muller transform.
func (r *RNG) normFloat64() float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.normFloat64())
}

// SplitMix64 advances a splitmix64 state and returns the next output without
// any receiver: handy for cheap stateless hashing of composed seeds.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes two 64-bit values into one; used to derive per-context seeds.
func Hash2(a, b uint64) uint64 {
	return SplitMix64(a ^ SplitMix64(b))
}

// Hash3 mixes three 64-bit values into one.
func Hash3(a, b, c uint64) uint64 {
	return SplitMix64(Hash2(a, b) ^ SplitMix64(c))
}
