// Package sph implements smoothed particle hydrodynamics on top of the
// treecode library — the second of the paper's §3.5.1 client codes ("the
// vortex particle method requires only 2500 lines interfaced to the same
// treecode library. Smoothed particle hydrodynamics takes 3000 lines.").
// The treecode supplies neighbour finding (range queries over the hashed
// octree) and, when self-gravity is enabled, the gravitational
// accelerations; this package supplies the hydrodynamics: the M4 cubic
// spline kernel, density summation, an adiabatic equation of state,
// symmetric pressure forces with Monaghan artificial viscosity, and the
// specific-internal-energy equation.
package sph

import (
	"fmt"
	"math"

	"repro/internal/nbody"
	"repro/internal/par"
	"repro/internal/treecode"
)

// Kernel is the M4 cubic spline smoothing kernel in 3D with support 2h.
type Kernel struct {
	H     float64 // smoothing length
	sigma float64 // normalization 1/(π h³)
}

// NewKernel returns the kernel for a smoothing length h > 0.
func NewKernel(h float64) (*Kernel, error) {
	if h <= 0 {
		return nil, fmt.Errorf("sph: non-positive smoothing length")
	}
	return &Kernel{H: h, sigma: 1 / (math.Pi * h * h * h)}, nil
}

// W evaluates the kernel at separation r ≥ 0.
func (k *Kernel) W(r float64) float64 {
	q := r / k.H
	switch {
	case q < 0:
		return 0
	case q <= 1:
		return k.sigma * (1 - 1.5*q*q + 0.75*q*q*q)
	case q <= 2:
		d := 2 - q
		return k.sigma * 0.25 * d * d * d
	}
	return 0
}

// GradWOverR returns (1/r)·dW/dr at separation r, the factor that
// multiplies the separation vector in force sums (finite as r→0).
func (k *Kernel) GradWOverR(r float64) float64 {
	q := r / k.H
	h2 := k.H * k.H
	switch {
	case q <= 0:
		return k.sigma * (-3) / h2 // limit of the inner branch
	case q <= 1:
		return k.sigma / h2 * (-3 + 2.25*q)
	case q <= 2:
		d := 2 - q
		return -k.sigma * 0.75 * d * d / (q * h2)
	}
	return 0
}

// Support returns the kernel's compact-support radius (2h).
func (k *Kernel) Support() float64 { return 2 * k.H }

// Gas is a particle gas. Positions, velocities and masses live in the
// embedded nbody.System (so the treecode and the renderer work on it
// unchanged); this struct adds the thermodynamic state.
type Gas struct {
	*nbody.System
	// U is specific internal energy per particle.
	U []float64
	// Rho and P are filled by Step.
	Rho, P []float64
	// Gamma is the adiabatic index (5/3 monatomic).
	Gamma float64
	// Kernel smoothing.
	Kernel *Kernel
	// Viscosity parameters (Monaghan α, β); zero disables.
	AlphaVisc, BetaVisc float64
	// SelfGravity enables treecode gravity alongside pressure forces.
	SelfGravity bool
	// Theta is the gravity MAC (used only with SelfGravity).
	Theta float64
	// Engine selects the gravity force engine; the zero value
	// (EngineAuto) resolves to the dual-tree engine. Applies only with
	// SelfGravity.
	Engine treecode.Engine
	// grav is the lazily created persistent gravity forcer; keeping it
	// across steps lets its per-worker walk arenas stay warm, so the
	// steady-state gravity sweep allocates nothing per walk.
	grav *treecode.Forcer
	// NeighborCount reports the average neighbours in the last Step.
	NeighborCount float64
}

// sphGrain is the per-chunk particle count of the parallel SPH loops,
// which run on the process pool. Both loops are gather-form (each
// particle accumulates only into its own slots), so results are
// bit-identical at every pool width.
const sphGrain = 256

// NewGas wraps a particle system with uniform specific internal energy.
func NewGas(s *nbody.System, h, u0 float64) (*Gas, error) {
	k, err := NewKernel(h)
	if err != nil {
		return nil, err
	}
	if u0 <= 0 {
		return nil, fmt.Errorf("sph: non-positive internal energy")
	}
	n := s.N()
	g := &Gas{
		System:    s,
		U:         make([]float64, n),
		Rho:       make([]float64, n),
		P:         make([]float64, n),
		Gamma:     5.0 / 3.0,
		Kernel:    k,
		AlphaVisc: 1.0,
		BetaVisc:  2.0,
		Theta:     0.7,
	}
	for i := range g.U {
		g.U[i] = u0
	}
	return g, nil
}

// ComputeDensity fills Rho (and P via the EOS) by kernel summation over
// tree-found neighbours. Returns the tree for reuse.
func (g *Gas) ComputeDensity() (*treecode.Tree, error) {
	t, err := treecode.Build(treecode.SourcesFromSystem(g.System), treecode.BuildOptions{Bucket: 16})
	if err != nil {
		return nil, err
	}
	support := g.Kernel.Support()
	totalNbr := par.Reduce(par.Default(), g.N(), sphGrain, 0,
		func(lo, hi int) int {
			nbr := 0
			scratch := make([]int, 0, 64)
			for i := lo; i < hi; i++ {
				scratch = g.neighborsOf(t, i, support, scratch[:0])
				nbr += len(scratch)
				rho := 0.0
				for _, si := range scratch {
					s := t.Sources[si]
					dx := s.X - g.X[i]
					dy := s.Y - g.Y[i]
					dz := s.Z - g.Z[i]
					r := math.Sqrt(dx*dx + dy*dy + dz*dz)
					rho += s.M * g.Kernel.W(r)
				}
				g.Rho[i] = rho
				g.P[i] = (g.Gamma - 1) * rho * g.U[i]
			}
			return nbr
		},
		func(a, b int) int { return a + b })
	g.NeighborCount = float64(totalNbr) / float64(g.N())
	return t, nil
}

func (g *Gas) neighborsOf(t *treecode.Tree, i int, radius float64, out []int) []int {
	return t.Neighbors(g.X[i], g.Y[i], g.Z[i], radius, out)
}

// Accelerations computes hydrodynamic (and optionally gravitational)
// accelerations into AX/AY/AZ and returns dU/dt for each particle.
func (g *Gas) Accelerations() ([]float64, error) {
	t, err := g.ComputeDensity()
	if err != nil {
		return nil, err
	}
	n := g.N()
	dudt := make([]float64, n)
	for i := 0; i < n; i++ {
		g.AX[i], g.AY[i], g.AZ[i] = 0, 0, 0
	}
	support := g.Kernel.Support()
	cs := make([]float64, n)
	for i := 0; i < n; i++ {
		cs[i] = math.Sqrt(g.Gamma * g.P[i] / math.Max(g.Rho[i], 1e-300))
	}
	par.Default().For(n, sphGrain, func(lo, hi int) {
		scratch := make([]int, 0, 64)
		for i := lo; i < hi; i++ {
			scratch = g.neighborsOf(t, i, support, scratch[:0])
			pi := g.P[i] / (g.Rho[i] * g.Rho[i])
			for _, si := range scratch {
				j := t.Sources[si].Index
				if j == i || j < 0 {
					continue
				}
				dx := g.X[i] - g.X[j]
				dy := g.Y[i] - g.Y[j]
				dz := g.Z[i] - g.Z[j]
				r := math.Sqrt(dx*dx + dy*dy + dz*dz)
				gw := g.Kernel.GradWOverR(r)
				pj := g.P[j] / (g.Rho[j] * g.Rho[j])

				// Monaghan artificial viscosity.
				visc := 0.0
				dvx := g.VX[i] - g.VX[j]
				dvy := g.VY[i] - g.VY[j]
				dvz := g.VZ[i] - g.VZ[j]
				vdotr := dvx*dx + dvy*dy + dvz*dz
				if g.AlphaVisc > 0 && vdotr < 0 {
					h := g.Kernel.H
					mu := h * vdotr / (r*r + 0.01*h*h)
					cij := 0.5 * (cs[i] + cs[j])
					rhoij := 0.5 * (g.Rho[i] + g.Rho[j])
					visc = (-g.AlphaVisc*cij*mu + g.BetaVisc*mu*mu) / rhoij
				}

				f := (pi + pj + visc) * gw
				// gw is (1/r)dW/dr < 0; force on i points away from j for
				// positive pressure: a_i = -m_j (…) ∇_i W = -m_j (…) gw · d.
				g.AX[i] -= g.M[j] * f * dx
				g.AY[i] -= g.M[j] * f * dy
				g.AZ[i] -= g.M[j] * f * dz
				// Energy equation: du_i/dt = +½ Σ m_j (…) v_ij·∇_iW, with
				// ∇_iW = gw·d; separation (v_ij·d > 0, gw < 0) cools.
				dudt[i] += 0.5 * g.M[j] * (pi + pj + visc) * gw * vdotr
			}
		}
	})
	if g.SelfGravity {
		if g.grav == nil {
			g.grav = &treecode.Forcer{Theta: g.Theta, Engine: g.Engine}
		}
		gx := make([]float64, n)
		gy := make([]float64, n)
		gz := make([]float64, n)
		copy(gx, g.AX)
		copy(gy, g.AY)
		copy(gz, g.AZ)
		if err := g.grav.Forces(g.System); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			g.AX[i] += gx[i]
			g.AY[i] += gy[i]
			g.AZ[i] += gz[i]
		}
	}
	return dudt, nil
}

// Step advances the gas by one kick-drift-kick step of size dt,
// integrating velocities, positions and internal energy together.
func (g *Gas) Step(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("sph: non-positive dt")
	}
	dudt, err := g.Accelerations()
	if err != nil {
		return err
	}
	n := g.N()
	for i := 0; i < n; i++ {
		g.VX[i] += 0.5 * dt * g.AX[i]
		g.VY[i] += 0.5 * dt * g.AY[i]
		g.VZ[i] += 0.5 * dt * g.AZ[i]
		g.U[i] += 0.5 * dt * dudt[i]
		if g.U[i] < 1e-12 {
			g.U[i] = 1e-12
		}
		g.X[i] += dt * g.VX[i]
		g.Y[i] += dt * g.VY[i]
		g.Z[i] += dt * g.VZ[i]
	}
	dudt, err = g.Accelerations()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		g.VX[i] += 0.5 * dt * g.AX[i]
		g.VY[i] += 0.5 * dt * g.AY[i]
		g.VZ[i] += 0.5 * dt * g.AZ[i]
		g.U[i] += 0.5 * dt * dudt[i]
		if g.U[i] < 1e-12 {
			g.U[i] = 1e-12
		}
	}
	return nil
}

// ThermalEnergy returns Σ mᵢuᵢ.
func (g *Gas) ThermalEnergy() float64 {
	var e float64
	for i := 0; i < g.N(); i++ {
		e += g.M[i] * g.U[i]
	}
	return e
}

// KineticEnergy returns ½Σ mᵢvᵢ².
func (g *Gas) KineticEnergy() float64 {
	var e float64
	for i := 0; i < g.N(); i++ {
		e += 0.5 * g.M[i] * (g.VX[i]*g.VX[i] + g.VY[i]*g.VY[i] + g.VZ[i]*g.VZ[i])
	}
	return e
}
