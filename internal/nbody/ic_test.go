package nbody

import (
	"math"
	"testing"

	"repro/internal/par"
)

// icConservation runs each named preset through a short direct-force
// leapfrog and checks the invariants an IC must deliver: exactly-zeroed
// bulk momentum that stays zero, a stationary centre of mass, and
// bounded energy drift.
func TestICPresetsConservation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mk    func(n int, seed uint64) *System
		dt    float64
		drift float64
	}{
		// The cold disk is rotationally supported, not in exact
		// equilibrium (the enclosed-mass circular speed is an
		// approximation for a flattened system), so its energy bound is
		// looser than the virial Plummer merger's.
		{"colddisk", NewColdDisk, 0.002, 5e-3},
		{"twocluster", NewTwoCluster, 0.002, 1e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk(600, 42)
			s.Eps = 0.05
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			var mt float64
			for i := 0; i < s.N(); i++ {
				if s.M[i] <= 0 {
					t.Fatalf("particle %d has mass %v", i, s.M[i])
				}
				mt += s.M[i]
			}
			if math.Abs(mt-1) > 1e-12 {
				t.Fatalf("total mass %v, want 1", mt)
			}
			px, py, pz := s.momentum()
			if p := math.Sqrt(px*px + py*py + pz*pz); p > 1e-14 {
				t.Fatalf("initial momentum %g, want ~0", p)
			}
			cx0, cy0, cz0 := s.centerOfMass()

			k0, p0 := s.Energy()
			e0 := k0 + p0
			if err := s.Leapfrog(DirectForcer{}, tc.dt, 25); err != nil {
				t.Fatal(err)
			}
			k1, p1 := s.Energy()
			if d := math.Abs((k1 + p1 - e0) / e0); d > tc.drift {
				t.Fatalf("relative energy drift %g exceeds %g", d, tc.drift)
			}
			px, py, pz = s.momentum()
			if p := math.Sqrt(px*px + py*py + pz*pz); p > 1e-10 {
				t.Fatalf("momentum after integration %g, want ~0", p)
			}
			cx, cy, cz := s.centerOfMass()
			if d := math.Abs(cx-cx0) + math.Abs(cy-cy0) + math.Abs(cz-cz0); d > 1e-10 {
				t.Fatalf("centre of mass moved by %g", d)
			}
		})
	}
}

// TestICPresetsDeterministic: same seed, same system, bit for bit;
// different seed differs.
func TestICPresetsDeterministic(t *testing.T) {
	for _, mk := range []func(n int, seed uint64) *System{NewColdDisk, NewTwoCluster} {
		a, b := mk(500, 7), mk(500, 7)
		for i := 0; i < a.N(); i++ {
			if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) ||
				math.Float64bits(a.VX[i]) != math.Float64bits(b.VX[i]) {
				t.Fatalf("same seed diverged at particle %d", i)
			}
		}
		c := mk(500, 8)
		same := true
		for i := 0; i < a.N(); i++ {
			if a.X[i] != c.X[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical positions")
		}
	}
}

// TestColdDiskGeometry pins the disk's advertised shape: inside the
// unit radius, within the slab thickness, rotating about +z.
func TestColdDiskGeometry(t *testing.T) {
	s := NewColdDisk(2000, 3)
	var lz float64
	for i := 0; i < s.N(); i++ {
		r := math.Hypot(s.X[i], s.Y[i])
		if r > 1 {
			t.Fatalf("particle %d at cylindrical radius %g > 1", i, r)
		}
		if math.Abs(s.Z[i]) > DiskThickness/2 {
			t.Fatalf("particle %d at |z| = %g > %g", i, math.Abs(s.Z[i]), DiskThickness/2)
		}
		lz += s.M[i] * (s.X[i]*s.VY[i] - s.Y[i]*s.VX[i])
	}
	if lz <= 0 {
		t.Fatalf("disk angular momentum %g, want positive (prograde about +z)", lz)
	}
}

// TestTwoClusterGeometry pins the merger setup: two groups around
// x = ±2 approaching each other.
func TestTwoClusterGeometry(t *testing.T) {
	s := NewTwoCluster(2000, 3)
	var left, right int
	for i := 0; i < s.N(); i++ {
		if s.X[i] > 0 {
			right++
		} else {
			left++
		}
	}
	if left < s.N()/3 || right < s.N()/3 {
		t.Fatalf("lopsided split %d/%d", left, right)
	}
	// The halves must approach: mean vx of the +x half is negative.
	var vright float64
	for i := 0; i < s.N(); i++ {
		if s.X[i] > 0 {
			vright += s.VX[i]
		}
	}
	if vright/float64(right) >= 0 {
		t.Fatal("+x cluster is not approaching the origin")
	}
}

// TestEnergyWorkerDeterminism is the parallel-potential contract: the
// chunked reduction is bit-identical at worker widths 1, 2 and 8.
func TestEnergyWorkerDeterminism(t *testing.T) {
	s := NewPlummer(3000, 1, 17)
	s.Eps = 0.01
	k1, p1 := s.EnergyWith(par.New(1))
	for _, w := range []int{2, 8} {
		k, p := s.EnergyWith(par.New(w))
		if math.Float64bits(k) != math.Float64bits(k1) || math.Float64bits(p) != math.Float64bits(p1) {
			t.Fatalf("workers=%d: energy (%v, %v) differs from serial (%v, %v)", w, k, p, k1, p1)
		}
	}
	// Sanity: a bound virial-ish system has negative total energy.
	if k1+p1 >= 0 {
		t.Fatalf("Plummer total energy %g, want negative", k1+p1)
	}
}
