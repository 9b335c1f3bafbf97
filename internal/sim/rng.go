// Package sim provides the seedable random-number generator behind the
// cluster failure simulation, the N-body initial conditions and the
// gravity microkernel's inputs.
package sim

import "math"

// RNG is a small, seedable xoshiro256** generator. Models use independent
// RNG streams so that adding randomness to one subsystem does not perturb
// another — a standard trick for reproducible parallel simulations. The
// NAS EP kernel uses its own linear-congruential generator (as specified by
// NPB); this one serves the cluster/failure/workload models.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed via splitmix64, so
// that nearby seeds still yield well-separated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// All-zero state would be absorbing.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// Used for inter-failure times in the cluster reliability model.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// NormPair returns two independent standard normal deviates (Box–Muller,
// polar form — the same transform NPB EP uses).
func (r *RNG) NormPair() (float64, float64) {
	for {
		x := 2*r.Float64() - 1
		y := 2*r.Float64() - 1
		t := x*x + y*y
		if t > 0 && t < 1 {
			f := math.Sqrt(-2 * math.Log(t) / t)
			return x * f, y * f
		}
	}
}
