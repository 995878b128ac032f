// Package rng provides deterministic, splittable random number streams
// and the samplers Toto's behaviour models need (normal, uniform,
// Poisson, Bernoulli).
//
// The paper fixes "the seeds of all the random objects used within the
// code": the Population Manager uses a single seed, and every node's
// RgManager gets a unique seed specified through the model XML (§5.2).
// Source supports that discipline: a root stream can derive independent
// child streams from string labels ("node-3/disk", "popmgr"), so adding a
// node or a model never perturbs the draws of any other component.
//
// The generator is SplitMix64 — tiny, fast, passes BigCrush for the
// stream lengths used here, and trivially seedable from a hash, which is
// what label-derived splitting needs. Only the stdlib is used.
package rng

import (
	"hash/fnv"
	"math"
	"math/bits"
)

// Source is a deterministic random stream. It is not safe for concurrent
// use; derive one stream per goroutine or component instead of sharing.
type Source struct {
	state uint64
	// spare holds a cached second normal variate from the Box-Muller
	// transform; spareOK says whether it is valid.
	spare   float64
	spareOK bool
}

// New returns a Source seeded with seed. Distinct seeds give independent
// streams for practical purposes.
func New(seed uint64) *Source {
	// Avoid the all-zero state degeneracy by mixing the seed once.
	s := &Source{state: seed}
	s.next()
	return s
}

// Split derives an independent child stream from this stream's seed and a
// label. Splitting is a pure function of (parent seed, label): it does not
// advance the parent, so components can be wired up in any order without
// changing each other's draws.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(s.state >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return New(h.Sum64())
}

// next advances the SplitMix64 state and returns the next 64-bit value.
func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.next() }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := s.next()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// UniformRange returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: UniformRange with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform. sigma must be >= 0;
// sigma == 0 returns mean exactly.
func (s *Source) Normal(mean, sigma float64) float64 {
	if sigma < 0 {
		panic("rng: Normal with negative sigma")
	}
	if s.spareOK {
		s.spareOK = false
		return mean + sigma*s.spare
	}
	var u, v, r float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r = u*u + v*v
		if r > 0 && r < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r) / r)
	s.spare = v * f
	s.spareOK = true
	return mean + sigma*u*f
}

// Poisson returns a Poisson-distributed count with the given mean. For
// small means it uses Knuth's product method; for large means a normal
// approximation with continuity correction (adequate for the hourly event
// counts modeled here).
func (s *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := s.Normal(mean, math.Sqrt(mean))
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Shuffle randomizes the order of n elements via the provided swap
// function, using Fisher-Yates.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly random index in [0, len(weights)) with
// probability proportional to weights[i]. All weights must be >= 0 and at
// least one must be positive.
func (s *Source) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Choice with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Choice with zero total weight")
	}
	target := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
