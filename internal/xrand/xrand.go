// Package xrand provides the deterministic random-number machinery the
// algorithms rely on: per-PE pseudo-random streams, geometric deviates for
// skip-value Bernoulli sampling (Section 2 of the paper), and a shared
// stream for synchronized random choices across PEs (e.g. the one draw
// multisequence selection seeds its per-PE sampling streams from).
//
// The generator is xoshiro-class (SplitMix64-seeded xorshift multiply),
// chosen for speed and reproducibility; statistical quality far exceeds the
// needs of the sampling procedures, whose guarantees only require
// independence-like behaviour captured by Chernoff-bound analyses.
package xrand

import "math"

// splitMix64 advances a SplitMix64 state and returns the next value.
// Used for seeding so that nearby seeds yield uncorrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a small, fast deterministic generator (xorshift128+ variant).
// The zero value is not valid; construct with New.
type RNG struct {
	s0, s1 uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed int64) *RNG {
	r := &RNG{}
	r.reset(seed)
	return r
}

// NewPE returns the stream for PE rank derived from a machine seed: streams
// for distinct ranks are decorrelated via SplitMix64 scrambling.
func NewPE(seed int64, rank int) *RNG {
	r := &RNG{}
	r.SeedPE(seed, rank)
	return r
}

// reset puts r in the state New(seed) starts in.
func (r *RNG) reset(seed int64) {
	st := uint64(seed)
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// SeedPE resets r in place to the state NewPE(seed, rank) starts in — the
// allocation-free form for a stream held by value.
func (r *RNG) SeedPE(seed int64, rank int) {
	st := uint64(seed) ^ uint64(rank)*0x9e3779b97f4a7c15
	r.reset(int64(splitMix64(&st)))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	s1, s0 := r.s0, r.s1
	r.s0 = s0
	s1 ^= s1 << 23
	r.s1 = s1 ^ s0 ^ (s1 >> 17) ^ (s0 >> 26)
	return r.s1 + s0
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Int63n(int64(n)))
}

// Int63n returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	// Rejection sampling to remove modulo bias.
	maxUsable := uint64(math.MaxUint64) - uint64(math.MaxUint64)%uint64(n)
	for {
		v := r.Uint64()
		if v < maxUsable {
			return int64(v % uint64(n))
		}
	}
}

// Geometric returns a geometric deviate with success probability rho: the
// 1-based index of the first success in a sequence of Bernoulli(rho)
// trials. This is the paper's geometricRandomDeviate [Press et al.]:
// ceil(ln U / ln(1-rho)). Constant time. rho must be in (0,1]; rho == 1
// always returns 1. Values are capped at math.MaxInt64.
func (r *RNG) Geometric(rho float64) int64 {
	if rho >= 1 {
		return 1
	}
	if rho <= 0 {
		panic("xrand: Geometric with non-positive rho")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	g := math.Ceil(math.Log(u) / math.Log1p(-rho))
	if g < 1 {
		return 1
	}
	if g >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(g)
}

// Bernoulli returns true with probability rho.
func (r *RNG) Bernoulli(rho float64) bool {
	return r.Float64() < rho
}

// Normal returns a standard normal deviate (polar Box–Muller).
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Gamma returns a Gamma(shape, 1) deviate using Marsaglia–Tsang; shape must
// be positive. Used by the negative binomial generator.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		return r.Gamma(shape+1) * math.Pow(r.Float64()+1e-300, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson returns a Poisson(lambda) deviate. Exact inversion for small
// lambda; normal approximation for large lambda (error negligible for the
// workload-generation use in this repo).
func (r *RNG) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := math.Round(lambda + math.Sqrt(lambda)*r.Normal())
	if v < 0 {
		return 0
	}
	return int64(v)
}

// NegBinomial returns a negative binomial deviate with r0 failures and
// success probability p (number of successes before the r0-th failure),
// via the Gamma–Poisson mixture NB(r,p) = Poisson(Gamma(r) * p/(1-p)).
func (r *RNG) NegBinomial(r0 float64, p float64) int64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		panic("xrand: NegBinomial with p >= 1")
	}
	lambda := r.Gamma(r0) * p / (1 - p)
	return r.Poisson(lambda)
}

// SkipSampler iterates over the indices of a Bernoulli(rho) sample of
// 0..n-1 using geometric skip values, in expected time proportional to the
// sample size (Section 2, "Bernoulli sampling").
type SkipSampler struct {
	rng  *RNG
	rho  float64
	next int64
}

// NewSkipSampler creates a sampler over indices [0, n) — n is implicit;
// iterate with Next until it returns a value >= your n.
func NewSkipSampler(rng *RNG, rho float64) *SkipSampler {
	s := &SkipSampler{rng: rng, rho: rho, next: -1}
	s.advance()
	return s
}

func (s *SkipSampler) advance() {
	if s.rho <= 0 {
		s.next = math.MaxInt64
		return
	}
	g := s.rng.Geometric(s.rho)
	if s.next > math.MaxInt64-g {
		s.next = math.MaxInt64
		return
	}
	s.next += g
}

// Next returns the next sampled index (monotonically increasing). The
// caller stops once the returned index reaches its input size.
func (s *SkipSampler) Next() int64 {
	v := s.next
	s.advance()
	return v
}
