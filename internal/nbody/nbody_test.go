package nbody

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTwoBodyForceAnalytical(t *testing.T) {
	s := NewSystem(2)
	s.Eps = 0
	s.X[1] = 2 // separation 2 along x
	s.M[0], s.M[1] = 1, 3
	s.DirectForces()
	// a0 = G·m1/r² = 3/4 toward +x; a1 = 1/4 toward −x.
	if math.Abs(s.AX[0]-0.75) > 1e-15 || math.Abs(s.AX[1]+0.25) > 1e-15 {
		t.Fatalf("ax = %v, %v; want 0.75, -0.25", s.AX[0], s.AX[1])
	}
	if s.AY[0] != 0 || s.AZ[0] != 0 {
		t.Fatal("off-axis acceleration nonzero")
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	// Total force on an equal-mass system must vanish (softening is
	// symmetric).
	s := NewUniformCube(64, 5)
	s.DirectForces()
	var fx, fy, fz float64
	for i := 0; i < s.N(); i++ {
		fx += s.M[i] * s.AX[i]
		fy += s.M[i] * s.AY[i]
		fz += s.M[i] * s.AZ[i]
	}
	if math.Abs(fx)+math.Abs(fy)+math.Abs(fz) > 1e-12 {
		t.Fatalf("net force (%g,%g,%g) not zero", fx, fy, fz)
	}
}

func TestSofteningBoundsForce(t *testing.T) {
	s := NewSystem(2)
	s.Eps = 0.1
	s.X[1] = 1e-12 // nearly coincident
	s.M[0], s.M[1] = 1, 1
	s.DirectForces()
	if math.IsInf(s.AX[0], 0) || math.IsNaN(s.AX[0]) {
		t.Fatal("softened force blew up")
	}
	if math.Abs(s.AX[0]) > 1/(s.Eps*s.Eps) {
		t.Fatalf("force %v exceeds softening bound", s.AX[0])
	}
}

func TestInteractionCountingDirect(t *testing.T) {
	s := NewUniformCube(10, 1)
	s.DirectForces()
	if s.Interactions != 90 {
		t.Fatalf("Interactions = %d, want 10×9", s.Interactions)
	}
	if s.Flops() != 90*FlopsPerInteraction {
		t.Fatalf("Flops = %d", s.Flops())
	}
}

func TestLeapfrogEnergyConservation(t *testing.T) {
	s := NewPlummer(64, 1, 42)
	k0, p0 := s.Energy()
	e0 := k0 + p0
	if err := s.Leapfrog(DirectForcer{}, 0.001, 200); err != nil {
		t.Fatal(err)
	}
	k1, p1 := s.Energy()
	e1 := k1 + p1
	drift := math.Abs((e1 - e0) / e0)
	if drift > 5e-3 {
		t.Fatalf("energy drift %g over 200 steps, want < 5e-3", drift)
	}
}

func TestLeapfrogMomentumConservation(t *testing.T) {
	s := NewPlummer(32, 1, 11)
	px0, py0, pz0 := s.momentum()
	if err := s.Leapfrog(DirectForcer{}, 0.001, 100); err != nil {
		t.Fatal(err)
	}
	px1, py1, pz1 := s.momentum()
	if math.Abs(px1-px0)+math.Abs(py1-py0)+math.Abs(pz1-pz0) > 1e-12 {
		t.Fatal("momentum not conserved")
	}
}

func TestLeapfrogTimeReversibility(t *testing.T) {
	// Integrate forward then backward: positions must return (symplectic
	// integrators are exactly time-reversible up to roundoff).
	s := NewPlummer(16, 1, 3)
	x0 := append([]float64(nil), s.X...)
	if err := s.Leapfrog(DirectForcer{}, 0.01, 20); err != nil {
		t.Fatal(err)
	}
	// Reverse velocities and integrate the same distance.
	for i := range s.VX {
		s.VX[i], s.VY[i], s.VZ[i] = -s.VX[i], -s.VY[i], -s.VZ[i]
	}
	if err := s.Leapfrog(DirectForcer{}, 0.01, 20); err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if math.Abs(s.X[i]-x0[i]) > 1e-9 {
			t.Fatalf("particle %d did not return: %g vs %g", i, s.X[i], x0[i])
		}
	}
}

func TestLeapfrogValidation(t *testing.T) {
	s := NewUniformCube(4, 1)
	if err := s.Leapfrog(DirectForcer{}, 0, 10); err == nil {
		t.Error("dt=0 accepted")
	}
	if err := s.Leapfrog(DirectForcer{}, 0.1, -1); err == nil {
		t.Error("negative steps accepted")
	}
	s.Eps = -1
	if err := s.Leapfrog(DirectForcer{}, 0.1, 1); err == nil {
		t.Error("negative softening accepted")
	}
}

func TestPlummerProperties(t *testing.T) {
	s := NewPlummer(4000, 1, 99)
	// Total mass 1.
	var mt float64
	for _, m := range s.M {
		mt += m
	}
	if math.Abs(mt-1) > 1e-9 {
		t.Fatalf("total mass %v", mt)
	}
	// Half-mass radius of a Plummer sphere ≈ 1.305a.
	r := make([]float64, s.N())
	for i := range r {
		r[i] = math.Sqrt(s.X[i]*s.X[i] + s.Y[i]*s.Y[i] + s.Z[i]*s.Z[i])
	}
	n := 0
	for _, ri := range r {
		if ri < 1.305 {
			n++
		}
	}
	frac := float64(n) / float64(s.N())
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("mass inside 1.305a = %v, want ≈0.5", frac)
	}
	// Roughly virialized: 2K + U ≈ 0 within sampling noise.
	k, p := s.Energy()
	vir := (2*k + p) / math.Abs(p)
	if math.Abs(vir) > 0.25 {
		t.Fatalf("virial ratio residual %v too large", vir)
	}
}

func TestUniformCubeInBounds(t *testing.T) {
	s := NewUniformCube(1000, 7)
	for i := 0; i < s.N(); i++ {
		if s.X[i] < 0 || s.X[i] >= 1 || s.Y[i] < 0 || s.Y[i] >= 1 || s.Z[i] < 0 || s.Z[i] >= 1 {
			t.Fatal("particle outside unit cube")
		}
	}
}

func TestDeterministicICs(t *testing.T) {
	a := NewPlummer(50, 1, 5)
	b := NewPlummer(50, 1, 5)
	for i := range a.X {
		if a.X[i] != b.X[i] || a.VX[i] != b.VX[i] {
			t.Fatal("same seed gave different ICs")
		}
	}
}

func TestRenderDensity(t *testing.T) {
	s := NewPlummer(2000, 1, 13)
	img, err := RenderAuto(s, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Center must be brighter than the corner for a Plummer sphere.
	center := img.Pix[10*40+20]
	corner := img.Pix[0]
	if center <= corner {
		t.Fatalf("center %d not brighter than corner %d", center, corner)
	}
	art := img.ASCII()
	if len(strings.Split(strings.TrimRight(art, "\n"), "\n")) != 20 {
		t.Fatal("ASCII render has wrong height")
	}
}

func TestWritePGM(t *testing.T) {
	s := NewUniformCube(100, 3)
	img, err := RenderAuto(s, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P5\n8 8\n255\n")) {
		t.Fatalf("bad PGM header: %q", buf.Bytes()[:16])
	}
	if buf.Len() != len("P5\n8 8\n255\n")+64 {
		t.Fatalf("bad PGM size %d", buf.Len())
	}
}

func TestRenderValidation(t *testing.T) {
	s := NewUniformCube(10, 1)
	if _, err := RenderDensity(s, 0, 10, 0, 1, 0, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := RenderDensity(s, 10, 10, 1, 1, 0, 1); err == nil {
		t.Error("empty bounds accepted")
	}
	empty := NewSystem(0)
	if _, err := RenderAuto(empty, 4, 4); err == nil {
		t.Error("empty system accepted")
	}
}

// centerOfMass returns the mass-weighted mean position.
func (s *System) centerOfMass() (x, y, z float64) {
	var mt float64
	for i := 0; i < s.N(); i++ {
		x += s.M[i] * s.X[i]
		y += s.M[i] * s.Y[i]
		z += s.M[i] * s.Z[i]
		mt += s.M[i]
	}
	if mt > 0 {
		x, y, z = x/mt, y/mt, z/mt
	}
	return
}

// momentum returns the total momentum vector.
func (s *System) momentum() (px, py, pz float64) {
	for i := 0; i < s.N(); i++ {
		px += s.M[i] * s.VX[i]
		py += s.M[i] * s.VY[i]
		pz += s.M[i] * s.VZ[i]
	}
	return
}
