package nbody

import (
	"math"
	"testing"

	"repro/internal/par"
)

// coincidentSet is a small unsoftened system in which particles 1 and
// 3 sit at the same point, so their pair term is G·m·m/0 and the
// potential is −Inf.
func coincidentSet() *System {
	s := NewSystem(5)
	s.Eps = 0
	s.G = 0.75
	pos := [][3]float64{{0.1, -0.2, 0.3}, {-0.5, 0.25, 0}, {0.7, 0.7, -0.7}, {-0.5, 0.25, 0}, {0, 0, 1.5}}
	for i, p := range pos {
		s.X[i], s.Y[i], s.Z[i] = p[0], p[1], p[2]
		s.VX[i], s.VY[i], s.VZ[i] = 0.1*float64(i), -0.05, 0.02*float64(i*i)
		s.M[i] = 0.5 + 0.125*float64(i)
	}
	return s
}

// TestEnergyPinned pins the bits of EnergyWith's (kinetic, potential)
// on three inputs: the nbody spec's default initial conditions at
// n = 1000 (Plummer, seed 2001), a 3001-particle cold disk, whose row
// count is not a multiple of the chunk grain, and the unsoftened
// coincident set, whose potential is −Inf. Every worker width must
// give the recorded bits.
func TestEnergyPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		s        *System
		kin, pot uint64
	}{
		{"plummer1000", NewPlummer(1000, 1, 2001), 0x3fc32719b51c71b1, 0xbfd39d42233d53cc},
		{"colddisk3001", NewColdDisk(3001, 2001), 0x3fd54e24581ab6bd, 0xbfea873b9871ee11},
		{"coincident", coincidentSet(), 0x3fcae425aee631fa, 0xfff0000000000000},
	} {
		for _, w := range []int{1, 2, 8} {
			k, p := tc.s.EnergyWith(par.New(w))
			if math.Float64bits(k) != tc.kin {
				t.Errorf("%s workers=%d: kinetic %#x (%v), want %#x", tc.name, w, math.Float64bits(k), k, tc.kin)
			}
			if math.Float64bits(p) != tc.pot {
				t.Errorf("%s workers=%d: potential %#x (%v), want %#x", tc.name, w, math.Float64bits(p), p, tc.pot)
			}
		}
	}
}

// sameFloat reports whether a lane result matches the Go loop's: the
// same bits when finite, the same class (±Inf or NaN) otherwise.
func sameFloat(a, b float64) bool {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.IsNaN(a) && math.IsNaN(b)
	case math.IsInf(a, 0) || math.IsInf(b, 0):
		return a == b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// laneSystem is an n-particle system with varied masses, G = 0.7 and
// softening eps. Every seventh particle sits exactly on an earlier
// one, so eps = 0 meets coincident distinct particles (−Inf terms),
// and every eleventh is massless, which makes a coincident pair's term
// 0/0.
func laneSystem(n int, eps float64, seed uint64) *System {
	s := NewSystem(n)
	s.Eps = eps
	s.G = 0.7
	x := seed | 1
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11)/(1<<53)*2 - 1
	}
	for i := 0; i < n; i++ {
		s.X[i], s.Y[i], s.Z[i] = rnd(), rnd(), rnd()
		if i%7 == 6 {
			k := i / 2
			s.X[i], s.Y[i], s.Z[i] = s.X[k], s.Y[k], s.Z[k]
		}
		s.VX[i], s.VY[i], s.VZ[i] = rnd(), rnd(), rnd()
		s.M[i] = 0.5 + rnd()/4
		if i%11 == 10 {
			s.M[i] = 0
		}
	}
	return s
}

// TestEnergyLanesMatchGo compares EnergyWith under the AVX2 row kernel
// with the Go loop: row tails of every length (n = 0–9, 63, 64, 65 and
// 1003, which also leaves a partial last chunk), eps 0 with coincident
// and massless particles and eps > 0, at pool widths 1, 2 and 8.
func TestEnergyLanesMatchGo(t *testing.T) {
	if !energyLanes {
		t.Skip("no AVX2 energy lanes on this host")
	}
	defer func() { energyLanes = true }()
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1003} {
		for _, eps := range []float64{0, 0.05} {
			s := laneSystem(n, eps, uint64(n)+1)
			for _, w := range []int{1, 2, 8} {
				pool := par.New(w)
				energyLanes = false
				k0, p0 := s.EnergyWith(pool)
				energyLanes = true
				k1, p1 := s.EnergyWith(pool)
				if !sameFloat(k0, k1) || !sameFloat(p0, p1) {
					t.Errorf("n=%d eps=%v workers=%d: lanes (%v, %v), Go (%v, %v)", n, eps, w, k1, p1, k0, p0)
				}
			}
		}
	}
}
