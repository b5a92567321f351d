// Package stats provides the deterministic random-number generation and
// statistical machinery used by every Monte-Carlo campaign in phirel:
// splittable xoshiro256** streams, streaming summaries, histograms,
// binomial/normal confidence intervals for FIT and PVF estimates, and the
// exp and log the campaigns compute with.
//
// Everything is deterministic given a seed, which is what makes campaign
// results (and therefore the regenerated paper figures) reproducible. That
// holds on every GOARCH and CPU: each product that feeds a sum is rounded
// explicitly, float64(x*y), so no compiler fuses it into a multiply-add that
// rounds once (make fusion-check), and Exp and Log are the repository's own,
// not the host's (TestNoHostLibm).
package stats

import "math"

// RNG is a xoshiro256** generator seeded through splitmix64.
//
// It is deliberately not safe for concurrent use: parallel campaigns must
// derive one stream per worker (or per injection) with Split, which produces
// statistically independent child streams. The zero RNG is not valid; use
// NewRNG.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed state and returns the next output. It is used
// both to initialise xoshiro state and to derive child seeds in Split, per
// the generator authors' recommendation.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose entire future output is a pure function
// of seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitialises the generator in place, exactly as NewRNG(seed)
// would. It exists so hot loops can reuse one RNG value per worker instead
// of heap-allocating a fresh generator per trial; the output stream after
// Reseed(s) is bit-identical to NewRNG(s).
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
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

// Split derives an independent child stream. The parent advances, so
// successive Split calls yield distinct children.
func (r *RNG) Split() *RNG {
	// Two draws feed a splitmix chain so parent and child trajectories
	// decorrelate even for adjacent parent states.
	seed := r.Uint64() ^ rotl(r.Uint64(), 31)
	return NewRNG(splitmix64(&seed))
}

// Float64 returns a uniform value in [0,1) with 53 random bits. The scaling
// is a product by 2⁻⁵³ once compiled, and exact; float64(…) still rounds it,
// so that inlined into a caller's sum it is not fused into a multiply-add,
// which make fusion-check would list.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0,n) using Lemire's multiply-shift
// rejection method (unbiased). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -Log(u)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation with
// continuity correction, which is accurate far beyond the campaign needs.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		limit := Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	default:
		v := mean + float64(math.Sqrt(mean)*r.NormFloat64()) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// PickWeighted returns an index in [0,len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. It
// panics if the total weight is not positive.
func (r *RNG) PickWeighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: PickWeighted with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("stats: unreachable")
}
