// Package nbody provides the gravitational N-body machinery the paper's
// evaluation runs: direct-summation forces (the baseline and accuracy
// reference for the treecode), initial-condition generators, a leapfrog
// integrator, energy diagnostics, flop accounting, and the density
// renderer that reproduces Figure 3's view of the 9.7-million-particle
// simulation.
package nbody

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/sim"
)

// FlopsPerInteraction is the flop-counting convention of the original
// treecode papers (monopole interaction with softening): the constant the
// authors' Gflop ratings — and therefore ours — are built on.
const FlopsPerInteraction = 38

// System is a particle set in struct-of-arrays layout.
type System struct {
	X, Y, Z    []float64
	VX, VY, VZ []float64
	AX, AY, AZ []float64
	M          []float64
	// Eps is the Plummer softening length.
	Eps float64
	// G is the gravitational constant (1 in model units).
	G float64
	// Interactions accumulates the pairwise interactions evaluated, for
	// flop accounting.
	Interactions uint64
}

// NewSystem allocates an n-particle system.
func NewSystem(n int) *System {
	return &System{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
		AX: make([]float64, n), AY: make([]float64, n), AZ: make([]float64, n),
		M:   make([]float64, n),
		Eps: 0.01,
		G:   1,
	}
}

// N returns the particle count.
func (s *System) N() int { return len(s.X) }

// Validate checks array consistency.
func (s *System) Validate() error {
	n := s.N()
	for _, a := range [][]float64{s.Y, s.Z, s.VX, s.VY, s.VZ, s.AX, s.AY, s.AZ, s.M} {
		if len(a) != n {
			return fmt.Errorf("nbody: inconsistent array lengths")
		}
	}
	if s.Eps < 0 {
		return fmt.Errorf("nbody: negative softening")
	}
	return nil
}

// NewUniformCube fills the unit cube with equal-mass particles
// (total mass 1), deterministically from the seed.
func NewUniformCube(n int, seed uint64) *System {
	s := NewSystem(n)
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		s.X[i] = rng.Float64()
		s.Y[i] = rng.Float64()
		s.Z[i] = rng.Float64()
		s.M[i] = 1 / float64(n)
	}
	return s
}

// NewPlummer samples the Plummer sphere (scale radius a, total mass 1),
// the standard stellar-dynamics initial condition, with virial-consistent
// velocities drawn by von Neumann rejection (Aarseth, Hénon & Wielen).
func NewPlummer(n int, a float64, seed uint64) *System {
	s := NewSystem(n)
	rng := sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		// Radius from the inverse cumulative mass profile, with the
		// customary cut at 10a to avoid unbounded outliers.
		var r float64
		for {
			m := rng.Float64()
			for m == 0 {
				m = rng.Float64()
			}
			r = a / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
			if r <= 10*a {
				break
			}
		}
		x, y, z := randUnitVector(rng)
		s.X[i], s.Y[i], s.Z[i] = r*x, r*y, r*z
		// Speed by rejection against g(q) = q²(1-q²)^3.5.
		var q float64
		for {
			q = rng.Float64()
			g := q * q * math.Pow(1-q*q, 3.5)
			if rng.Float64()*0.1 < g {
				break
			}
		}
		ve := math.Sqrt2 * math.Pow(1+r*r/(a*a), -0.25) / math.Sqrt(a)
		v := q * ve
		vx, vy, vz := randUnitVector(rng)
		s.VX[i], s.VY[i], s.VZ[i] = v*vx, v*vy, v*vz
		s.M[i] = 1 / float64(n)
	}
	return s
}

func randUnitVector(rng *sim.RNG) (x, y, z float64) {
	for {
		x = 2*rng.Float64() - 1
		y = 2*rng.Float64() - 1
		z = 2*rng.Float64() - 1
		r2 := x*x + y*y + z*z
		if r2 > 0 && r2 <= 1 {
			r := math.Sqrt(r2)
			return x / r, y / r, z / r
		}
	}
}

// directGrain is the per-chunk particle count of the parallel direct
// loop (each particle already costs O(N) inner work).
const directGrain = 64

// DirectForces computes softened gravitational accelerations by direct
// summation — O(N²), the accuracy reference for the treecode. The outer
// loop runs on the process-wide host worker pool; each particle's inner
// accumulation is serial and unchanged, so results are bit-identical to
// a single-threaded run at any worker count.
func (s *System) DirectForces() { s.DirectForcesWith(par.Default()) }

// DirectForcesWith is DirectForces on an explicit worker pool.
func (s *System) DirectForcesWith(pool *par.Pool) { s.directForces(pool, nil) }

// directForces is the direct-summation loop, restricted to the targets
// with active[i] true when active is non-nil: the others keep their
// accelerations and cost no interactions.
func (s *System) directForces(pool *par.Pool, active []bool) {
	n := s.N()
	eps2 := s.Eps * s.Eps
	pool.For(n, directGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if active != nil && !active[i] {
				continue
			}
			xi, yi, zi := s.X[i], s.Y[i], s.Z[i]
			var ax, ay, az float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dx := s.X[j] - xi
				dy := s.Y[j] - yi
				dz := s.Z[j] - zi
				r2 := dx*dx + dy*dy + dz*dz + eps2
				rinv := 1 / math.Sqrt(r2)
				rinv3 := s.G * s.M[j] * rinv * rinv * rinv
				ax += rinv3 * dx
				ay += rinv3 * dy
				az += rinv3 * dz
			}
			s.AX[i], s.AY[i], s.AZ[i] = ax, ay, az
		}
	})
	updated := n
	if active != nil {
		updated = 0
		for _, a := range active[:n] {
			if a {
				updated++
			}
		}
	}
	s.Interactions += uint64(updated) * uint64(n-1)
}

// Flops returns the accumulated flop count under the treecode-paper
// convention.
func (s *System) Flops() uint64 {
	return s.Interactions * FlopsPerInteraction
}

// Forcer computes accelerations into the system's AX/AY/AZ arrays.
type Forcer interface {
	Forces(s *System) error
}

// DirectForcer adapts DirectForces to the Forcer interface.
type DirectForcer struct{}

// Forces implements Forcer.
func (DirectForcer) Forces(s *System) error {
	s.DirectForces()
	return nil
}

// Leapfrog advances the system by steps of size dt using kick-drift-kick,
// the symplectic integrator every production N-body code uses.
func (s *System) Leapfrog(f Forcer, dt float64, steps int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if dt <= 0 || steps < 0 {
		return fmt.Errorf("nbody: bad dt %v or steps %d", dt, steps)
	}
	if err := f.Forces(s); err != nil {
		return err
	}
	n := s.N()
	for step := 0; step < steps; step++ {
		for i := 0; i < n; i++ {
			s.VX[i] += 0.5 * dt * s.AX[i]
			s.VY[i] += 0.5 * dt * s.AY[i]
			s.VZ[i] += 0.5 * dt * s.AZ[i]
			s.X[i] += dt * s.VX[i]
			s.Y[i] += dt * s.VY[i]
			s.Z[i] += dt * s.VZ[i]
		}
		if err := f.Forces(s); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			s.VX[i] += 0.5 * dt * s.AX[i]
			s.VY[i] += 0.5 * dt * s.AY[i]
			s.VZ[i] += 0.5 * dt * s.AZ[i]
		}
	}
	return nil
}

// energyGrain is the fixed row-chunk size of the parallel potential
// sum. Fixed (never derived from the worker count) so chunk boundaries
// — and therefore the floating-point fold — are a pure function of n.
const energyGrain = 256

// Energy returns kinetic and potential energy (potential by direct
// summation with the same softening as the forces, so leapfrog
// conservation can be checked consistently). The O(n²) potential runs
// on the process-wide worker pool, on AVX2 hosts four sources per
// instruction; see EnergyWith.
func (s *System) Energy() (kinetic, potential float64) {
	return s.EnergyWith(par.Default())
}

// EnergyWith is Energy over an explicit worker pool. The pair sum is
// chunked by target row at a fixed grain, each chunk accumulates into
// its own slot, and the slots fold serially in chunk order — so the
// result is bit-identical at every worker width (the internal/par
// determinism contract), though not to the retired single-accumulator
// serial sum (a different fold shape). Within a row the terms are
// subtracted in j order; where energyLanes is set, potRow4 forms them
// four at a time and keeps that order, so both paths give the same
// bits.
func (s *System) EnergyWith(pool *par.Pool) (kinetic, potential float64) {
	n := s.N()
	for i := 0; i < n; i++ {
		v2 := s.VX[i]*s.VX[i] + s.VY[i]*s.VY[i] + s.VZ[i]*s.VZ[i]
		kinetic += 0.5 * s.M[i] * v2
	}
	eps2 := s.Eps * s.Eps
	nc := par.NumChunks(n, energyGrain)
	partial := make([]float64, nc)
	pool.ForChunks(n, energyGrain, func(c, lo, hi int) {
		var pot float64
		for i := lo; i < hi; i++ {
			gmi := s.G * s.M[i]
			j := i + 1
			if energyLanes {
				k := j + (n-j)&^3
				pot = potRow4(s.X[i], s.Y[i], s.Z[i], gmi, eps2, pot, s.X[j:k], s.Y[j:k], s.Z[j:k], s.M[j:k])
				j = k
			}
			for ; j < n; j++ {
				dx := s.X[j] - s.X[i]
				dy := s.Y[j] - s.Y[i]
				dz := s.Z[j] - s.Z[i]
				r := math.Sqrt(dx*dx + dy*dy + dz*dz + eps2)
				pot -= gmi * s.M[j] / r
			}
		}
		partial[c] = pot
	})
	for _, p := range partial {
		potential += p
	}
	return kinetic, potential
}
