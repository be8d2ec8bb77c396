// Package rng provides deterministic pseudo-random number generation for
// the simulator and the attack code.
//
// Everything in this repository that needs randomness draws it from a
// seeded *Source so experiments are reproducible bit-for-bit. The
// generator is a SplitMix64 core; it is fast, has a 64-bit state, passes
// statistical tests far beyond the needs of this project, and — unlike
// math/rand's global functions — never shares state between components.
package rng

// Source is a deterministic pseudo-random number generator.
//
// The zero value is a valid generator seeded with 0; use New to seed it
// explicitly. Source is not safe for concurrent use; give each component
// its own Source (see Split).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child generator from s. The child's stream
// is decorrelated from the parent's by mixing in a fixed odd constant, so
// components seeded from the same parent do not observe each other's
// sequences.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	return s.Uint64() % n
}

// Bool returns a uniformly distributed boolean.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Chance returns true with probability p (clamped to [0, 1]).
func (s *Source) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Bits returns n uniformly distributed booleans.
func (s *Source) Bits(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = s.Bool()
	}
	return out
}

// Perm returns a uniformly distributed permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
