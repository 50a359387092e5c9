// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by the synthetic workload generators.
//
// The simulator must be bit-reproducible across runs and platforms, and the
// standard library's math/rand does not guarantee a stable stream across Go
// releases. This package implements SplitMix64 (Steele, Lea, Flood 2014),
// whose output stream is fixed by construction, plus the handful of
// convenience samplers the workload layer needs.
package rng

// Source is a deterministic 64-bit PRNG (SplitMix64). The zero value is a
// valid generator seeded with 0; Seed reseeds it, and distinct seeds
// produce statistically independent streams.
type Source struct {
	state uint64
}

// Seed resets the generator to the given seed.
func (s *Source) Seed(seed uint64) {
	s.state = seed
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free reduction is not needed here;
	// modulo bias is negligible for the small n used by workloads, but we
	// use the high bits which have better equidistribution.
	return int((s.Uint64() >> 11) % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
