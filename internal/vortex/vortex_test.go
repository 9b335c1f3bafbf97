package vortex

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/treecode"
)

// velocityDirect evaluates the Biot–Savart velocity at (x,y,z) by direct
// summation — the accuracy reference.
func (p *Particles) velocityDirect(x, y, z float64) (ux, uy, uz float64) {
	eps2 := p.Eps * p.Eps
	for j := 0; j < p.N(); j++ {
		dx := x - p.X[j]
		dy := y - p.Y[j]
		dz := z - p.Z[j]
		r2 := dx*dx + dy*dy + dz*dz + eps2
		rinv3 := 1 / (r2 * math.Sqrt(r2))
		// (d × Γ)/r³
		cx := dy*p.GZ[j] - dz*p.GY[j]
		cy := dz*p.GX[j] - dx*p.GZ[j]
		cz := dx*p.GY[j] - dy*p.GX[j]
		ux += cx * rinv3
		uy += cy * rinv3
		uz += cz * rinv3
	}
	s := -1 / (4 * math.Pi)
	return s * ux, s * uy, s * uz
}

// totalCirculation returns ΣΓ (an invariant of inviscid advection).
func (p *Particles) totalCirculation() (gx, gy, gz float64) {
	for i := 0; i < p.N(); i++ {
		gx += p.GX[i]
		gy += p.GY[i]
		gz += p.GZ[i]
	}
	return
}

func randomBlob(n int, seed uint64) *Particles {
	rng := sim.NewRNG(seed)
	p := New(n)
	for i := 0; i < n; i++ {
		p.X[i] = rng.Float64()
		p.Y[i] = rng.Float64()
		p.Z[i] = rng.Float64()
		p.GX[i] = rng.Float64() - 0.5
		p.GY[i] = rng.Float64() - 0.5
		p.GZ[i] = rng.Float64() - 0.5
	}
	return p
}

func TestTreeMatchesDirectBiotSavart(t *testing.T) {
	p := randomBlob(800, 3)
	trees, err := p.BuildTrees()
	if err != nil {
		t.Fatal(err)
	}
	var st treecode.Stats
	var sumErr, sumMag float64
	for probe := 0; probe < 50; probe++ {
		x, y, z := p.X[probe*13%800], p.Y[probe*13%800]+0.01, p.Z[probe*13%800]
		dx, dy, dz := p.velocityDirect(x, y, z)
		tx, ty, tz := trees.VelocityStats(x, y, z, 0.4, &st)
		sumErr += (dx-tx)*(dx-tx) + (dy-ty)*(dy-ty) + (dz-tz)*(dz-tz)
		sumMag += dx*dx + dy*dy + dz*dz
	}
	rms := math.Sqrt(sumErr / sumMag)
	if rms > 0.02 {
		t.Fatalf("tree Biot–Savart RMS error %g vs direct", rms)
	}
	if st.Interactions() == 0 {
		t.Fatal("no interactions recorded")
	}
}

func TestSingleVortexAnalytic(t *testing.T) {
	// One particle with Γ = ẑ at the origin: u(x,0,0) points in -ŷ?
	// u = -(1/4π)(x−x_j)×Γ/r³: (x̂ × ẑ) = -ŷ ⇒ u = +(1/4π)/x² · ŷ... check
	// against the direct evaluator and magnitude 1/(4π x²) (softening off).
	p := New(1)
	p.Eps = 0
	p.GZ[0] = 1
	ux, uy, uz := p.velocityDirect(2, 0, 0)
	want := 1.0 / (4 * math.Pi * 4)
	if math.Abs(ux) > 1e-15 || math.Abs(uz) > 1e-15 {
		t.Fatalf("off-axis components: %g, %g", ux, uz)
	}
	if math.Abs(math.Abs(uy)-want) > 1e-12 {
		t.Fatalf("|u_y| = %g, want %g", math.Abs(uy), want)
	}
}

func TestRingTranslatesAlongAxis(t *testing.T) {
	// A vortex ring self-advects along its axis (+z for positive
	// circulation) without changing radius much — the classic smoke-ring.
	p := Ring(64, 1.0, 1.0)
	z0 := meanZ(p)
	r0 := meanR(p)
	for step := 0; step < 10; step++ {
		if err := p.Step(0.01, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	z1 := meanZ(p)
	r1 := meanR(p)
	if math.Abs(z1-z0) < 1e-4 {
		t.Fatalf("ring did not translate: Δz = %g", z1-z0)
	}
	// Radius approximately preserved.
	if math.Abs(r1-r0)/r0 > 0.05 {
		t.Fatalf("ring radius drifted: %g → %g", r0, r1)
	}
	// All particles moved the same way (rigid translation).
	var spread float64
	for i := 0; i < p.N(); i++ {
		spread += (p.Z[i] - z1) * (p.Z[i] - z1)
	}
	if math.Sqrt(spread/float64(p.N())) > 0.01 {
		t.Fatalf("ring deformed along z")
	}
}

func meanZ(p *Particles) float64 {
	var s float64
	for i := 0; i < p.N(); i++ {
		s += p.Z[i]
	}
	return s / float64(p.N())
}

func meanR(p *Particles) float64 {
	var s float64
	for i := 0; i < p.N(); i++ {
		s += math.Sqrt(p.X[i]*p.X[i] + p.Y[i]*p.Y[i])
	}
	return s / float64(p.N())
}

func TestCirculationInvariant(t *testing.T) {
	p := Ring(32, 1, 2)
	gx0, gy0, gz0 := p.totalCirculation()
	// A closed ring's total circulation vector sums to ~0.
	if math.Abs(gx0)+math.Abs(gy0)+math.Abs(gz0) > 1e-12 {
		t.Fatalf("ring circulation not closed: %g %g %g", gx0, gy0, gz0)
	}
	if err := p.Step(0.01, 0.5); err != nil {
		t.Fatal(err)
	}
	gx1, gy1, gz1 := p.totalCirculation()
	if gx1 != gx0 || gy1 != gy0 || gz1 != gz0 {
		t.Fatal("advection changed circulation")
	}
}

func TestValidation(t *testing.T) {
	p := New(4)
	p.Eps = -1
	if _, err := p.BuildTrees(); err == nil {
		t.Fatal("negative softening accepted")
	}
	p = New(4)
	if err := p.Step(0, 0.5); err == nil {
		t.Fatal("dt=0 accepted")
	}
}
