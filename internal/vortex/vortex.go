// Package vortex implements the vortex particle method on top of the
// treecode library — the first of the paper's §3.5.1 client codes ("The
// vortex particle method requires only 2500 lines interfaced to the same
// treecode library"), citing Salmon, Warren & Winckelmans, "Fast Parallel
// Treecodes for Gravitational and Fluid Dynamical N-body Problems".
//
// Vortex particles carry a circulation vector Γ; the fluid velocity they
// induce is the Biot–Savart sum
//
//	u(x) = -(1/4π) Σ_j (x − x_j) × Γ_j / |x − x_j|³   (softened)
//
// Each Cartesian component of the sum is structurally a gravitational
// force sum with "mass" Γ_c, so the method reuses the gravity treecode
// verbatim: three tree passes (one per circulation component) assemble
// the cross product. This is precisely the library-reuse economics the
// paper describes.
package vortex

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/treecode"
)

// Particles is a set of vortex particles.
type Particles struct {
	X, Y, Z    []float64
	GX, GY, GZ []float64 // circulation vector Γ per particle
	// Eps is the Rosenhead–Moore softening.
	Eps float64
}

// New allocates n vortex particles.
func New(n int) *Particles {
	return &Particles{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		GX: make([]float64, n), GY: make([]float64, n), GZ: make([]float64, n),
		Eps: 0.05,
	}
}

// N returns the particle count.
func (p *Particles) N() int { return len(p.X) }

// Validate checks array consistency.
func (p *Particles) Validate() error {
	n := p.N()
	for _, a := range [][]float64{p.Y, p.Z, p.GX, p.GY, p.GZ} {
		if len(a) != n {
			return fmt.Errorf("vortex: inconsistent array lengths")
		}
	}
	if p.Eps < 0 {
		return fmt.Errorf("vortex: negative softening")
	}
	return nil
}

// FieldTrees hold the component trees used for fast evaluation. Because
// circulation components are signed and the gravity tree's monopole
// (centre-of-"mass") degenerates when a cell's net source cancels, each
// component is split into its positive and negative parts — six
// well-conditioned, non-negative trees in all.
type FieldTrees struct {
	pos, neg [3]*treecode.Tree
	eps      float64
}

// BuildTrees constructs the signed-split circulation-component trees
// (the gravity tree with |Γ_c^±| as mass).
func (p *Particles) BuildTrees() (*FieldTrees, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mk := func(g []float64, sign float64) (*treecode.Tree, error) {
		srcs := make([]treecode.Source, p.N())
		for i := range srcs {
			m := sign * g[i]
			if m < 0 {
				m = 0
			}
			srcs[i] = treecode.Source{X: p.X[i], Y: p.Y[i], Z: p.Z[i], M: m, Index: i}
		}
		return treecode.Build(srcs, treecode.BuildOptions{})
	}
	f := &FieldTrees{eps: p.Eps}
	// The six signed-component trees are independent builds; run them on
	// the pool.
	comps := [3][]float64{p.GX, p.GY, p.GZ}
	var errs [6]error
	tasks := make([]func(), 0, 6)
	for c := 0; c < 3; c++ {
		c := c
		tasks = append(tasks,
			func() { f.pos[c], errs[2*c] = mk(comps[c], 1) },
			func() { f.neg[c], errs[2*c+1] = mk(comps[c], -1) })
	}
	par.Default().Do(tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// VelocityStats evaluates the Biot–Savart velocity at a point with the
// trees: F^c(x) = Σ Γ_c,j (x_j − x)/|…|³ comes from ForceAt with mass
// Γ_c, and the cross product is assembled from the three component
// fields. The MAC θ trades accuracy for work exactly as in the gravity
// code. Interactions are added to st, so concurrent callers each pass
// their own.
func (f *FieldTrees) VelocityStats(x, y, z, theta float64, st *treecode.Stats) (ux, uy, uz float64) {
	// ForceAt returns F^m = Σ m_j d_j/|d_j|³ with d_j = x_j − x (toward
	// the source); Biot–Savart needs Σ (x − x_j) × Γ_j = Σ (−d_j) × Γ_j,
	// and with the −1/(4π) prefactor the signs cancel to +1/(4π).
	var fc [3][3]float64 // fc[c] = F^{Γ_c}
	for c := 0; c < 3; c++ {
		px, py, pz := f.pos[c].ForceAt(x, y, z, -1, theta, f.eps, st)
		nx, ny, nz := f.neg[c].ForceAt(x, y, z, -1, theta, f.eps, st)
		fc[c] = [3]float64{px - nx, py - ny, pz - nz}
	}
	s := 1 / (4 * math.Pi)
	ux = s * (fc[2][1] - fc[1][2]) // F^z_y − F^y_z
	uy = s * (fc[0][2] - fc[2][0])
	uz = s * (fc[1][0] - fc[0][1])
	return ux, uy, uz
}

// velGrain is the per-chunk particle count of the parallel Biot–Savart
// evaluation loop.
const velGrain = 128

// SelfVelocities computes the induced velocity at every particle
// position with the tree method. The builds and evaluations run on the
// host worker pool (par.Workers() wide) and are bit-identical at every
// width.
func (p *Particles) SelfVelocities(theta float64) (ux, uy, uz []float64, stats treecode.Stats, err error) {
	trees, err := p.BuildTrees()
	if err != nil {
		return nil, nil, nil, stats, err
	}
	n := p.N()
	ux = make([]float64, n)
	uy = make([]float64, n)
	uz = make([]float64, n)
	chunkStats := make([]treecode.Stats, par.NumChunks(n, velGrain))
	par.Default().ForChunks(n, velGrain, func(c, lo, hi int) {
		st := &chunkStats[c]
		for i := lo; i < hi; i++ {
			ux[i], uy[i], uz[i] = trees.VelocityStats(p.X[i], p.Y[i], p.Z[i], theta, st)
		}
	})
	for _, cs := range chunkStats {
		stats.PP += cs.PP
		stats.PC += cs.PC
	}
	return ux, uy, uz, stats, nil
}

// Ring initializes a discretized vortex ring of the given radius and
// total circulation in the z=0 plane, centred at the origin.
func Ring(n int, radius, circulation float64) *Particles {
	p := New(n)
	for i := 0; i < n; i++ {
		phi := 2 * math.Pi * float64(i) / float64(n)
		p.X[i] = radius * math.Cos(phi)
		p.Y[i] = radius * math.Sin(phi)
		// Γ tangent to the ring, magnitude Γ_total·(arc length)/segment.
		seg := circulation * 2 * math.Pi * radius / float64(n)
		p.GX[i] = -seg * math.Sin(phi)
		p.GY[i] = seg * math.Cos(phi)
	}
	return p
}

// Step advances the particles by forward-Euler advection in their own
// induced field (vortex methods advect particles with the flow).
func (p *Particles) Step(dt, theta float64) error {
	if dt <= 0 {
		return fmt.Errorf("vortex: non-positive dt")
	}
	ux, uy, uz, _, err := p.SelfVelocities(theta)
	if err != nil {
		return err
	}
	for i := 0; i < p.N(); i++ {
		p.X[i] += dt * ux[i]
		p.Y[i] += dt * uy[i]
		p.Z[i] += dt * uz[i]
	}
	return nil
}
