// Package rng provides small, fast, deterministic pseudo-random number
// generators and the non-uniform variates needed by the LSH families and the
// HyperLogLog sketch: uniform 64-bit words, standard Gaussian (for 2-stable
// projections), standard Cauchy (for 1-stable projections) and
// Geometric(1/2) (for HLL register updates).
//
// Everything in this package is seeded explicitly so that index construction
// and experiments are reproducible bit-for-bit. The generators are NOT safe
// for concurrent use; give each goroutine its own generator, e.g. via Split.
package rng

import "math"

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used both as a stand-alone generator for cheap streams and to seed
// Xoshiro256 state from a single word.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit word of the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator: fast, 256 bits of state, and passes
// BigCrush. It is the workhorse generator of this repository.
type Rand struct {
	s [4]uint64
}

// New returns a Rand whose state is derived from seed via SplitMix64, as
// recommended by the xoshiro authors (an all-zero state is unreachable).
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	return &r
}

// Split returns a new generator whose stream is independent (for practical
// purposes) of r's: the child is seeded from the parent's stream.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit word.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32-bit word (upper half of Uint64).
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask32
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask32) << 32
	hi = aHi*bHi + hiPart + t>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1): never exactly zero, which
// makes it safe as input to log and tan.
func (r *Rand) Float64Open() float64 {
	for {
		f := r.Float64()
		if f != 0 {
			return f
		}
	}
}

// Normal returns a standard Gaussian variate N(0, 1) using the Marsaglia
// polar method. Gaussian projections make the p-stable LSH family 2-stable,
// i.e. suitable for L2 distance (Datar et al., SoCG 2004).
func (r *Rand) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Cauchy returns a standard Cauchy variate via inverse-CDF. Cauchy
// projections make the p-stable family 1-stable, i.e. suitable for L1
// distance (Datar et al., SoCG 2004).
func (r *Rand) Cauchy() float64 {
	return math.Tan(math.Pi * (r.Float64Open() - 0.5))
}

// Geometric returns a Geometric(1/2) variate in [1, 64]: the position of the
// first 1-bit in a random word, which is exactly the register-update value
// HyperLogLog uses (Flajolet et al., AofA 2007).
func (r *Rand) Geometric() int {
	w := r.Uint64()
	if w == 0 {
		return 64
	}
	v := 1
	for w&1 == 0 {
		v++
		w >>= 1
	}
	return v
}

// Perm returns a random permutation of [0, n) via Fisher–Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n.
func (r *Rand) Sample(n, k int) []int {
	if k > n {
		panic("rng: Sample called with k > n")
	}
	// Partial Fisher–Yates over a dense index array. For the sizes used in
	// this repository (k ≤ a few hundred) this is both simple and fast.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k:k]
}

// Shuffle permutes s in place.
func (r *Rand) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Exp returns a standard exponential variate Exp(1).
func (r *Rand) Exp() float64 {
	return -math.Log(r.Float64Open())
}
