package nbody

import (
	"testing"

	"repro/internal/par"
)

// TestDirectForcesBitIdentical asserts the parallel direct-summation
// loop produces bit-identical accelerations (and the same interaction
// count) at worker counts 1, 2 and 8.
func TestDirectForcesBitIdentical(t *testing.T) {
	run := func(w int) *System {
		s := NewPlummer(1500, 1, 77)
		s.DirectForcesWith(par.New(w))
		return s
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.Interactions != ref.Interactions {
			t.Fatalf("workers=%d interactions %d != serial %d", w, got.Interactions, ref.Interactions)
		}
		for i := 0; i < ref.N(); i++ {
			if got.AX[i] != ref.AX[i] || got.AY[i] != ref.AY[i] || got.AZ[i] != ref.AZ[i] {
				t.Fatalf("workers=%d: acceleration of particle %d differs from serial", w, i)
			}
		}
	}
}

// TestDirectForcesActiveMatchesUnmasked checks the masked direct loop
// against the unmasked one at worker counts 1, 2 and 8: every active
// row has the unmasked accelerations bit for bit, every inactive row
// keeps its previous values, and only the active rows are counted as
// interactions.
func TestDirectForcesActiveMatchesUnmasked(t *testing.T) {
	const n = 700
	ref := NewPlummer(n, 1, 31)
	ref.DirectForcesWith(par.New(1))
	active := make([]bool, n)
	nActive := 0
	for i := range active {
		active[i] = i%3 == 0 || i%64 == 63
		if active[i] {
			nActive++
		}
	}
	for _, w := range []int{1, 2, 8} {
		s := NewPlummer(n, 1, 31)
		for i := 0; i < n; i++ {
			s.AX[i], s.AY[i], s.AZ[i] = 7, 7, 7
		}
		s.directForces(par.New(w), active)
		if want := uint64(nActive) * (n - 1); s.Interactions != want {
			t.Fatalf("workers=%d: %d interactions, want %d", w, s.Interactions, want)
		}
		for i := 0; i < n; i++ {
			want := [3]float64{7, 7, 7}
			if active[i] {
				want = [3]float64{ref.AX[i], ref.AY[i], ref.AZ[i]}
			}
			if got := [3]float64{s.AX[i], s.AY[i], s.AZ[i]}; got != want {
				t.Fatalf("workers=%d: particle %d (active %v) acceleration %v, want %v", w, i, active[i], got, want)
			}
		}
	}
	// A nil mask is the unmasked loop.
	s := NewPlummer(n, 1, 31)
	if err := (DirectForcer{}).ForcesActive(s, nil); err != nil {
		t.Fatal(err)
	}
	if s.Interactions != ref.Interactions {
		t.Fatalf("nil mask: %d interactions, want %d", s.Interactions, ref.Interactions)
	}
	for i := 0; i < n; i++ {
		if s.AX[i] != ref.AX[i] || s.AY[i] != ref.AY[i] || s.AZ[i] != ref.AZ[i] {
			t.Fatalf("nil mask: particle %d differs from DirectForces", i)
		}
	}
}
