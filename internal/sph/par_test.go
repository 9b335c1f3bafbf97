package sph

import (
	"testing"

	"repro/internal/nbody"
	"repro/internal/par"
)

// TestAccelerationsBitIdentical asserts the parallel SPH density and
// force loops are bit-identical to serial at pool widths 1, 2 and 8.
func TestAccelerationsBitIdentical(t *testing.T) {
	run := func(w int) (*Gas, []float64) {
		par.SetWorkers(w)
		defer par.SetWorkers(0)
		s := nbody.NewPlummer(800, 0.4, 11)
		g, err := NewGas(s, 0.1, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		dudt, err := g.Accelerations()
		if err != nil {
			t.Fatal(err)
		}
		return g, dudt
	}
	ref, refDudt := run(1)
	for _, w := range []int{2, 8} {
		got, gotDudt := run(w)
		if got.NeighborCount != ref.NeighborCount {
			t.Fatalf("workers=%d neighbour count %v != serial %v", w, got.NeighborCount, ref.NeighborCount)
		}
		for i := 0; i < ref.N(); i++ {
			if got.Rho[i] != ref.Rho[i] || got.P[i] != ref.P[i] {
				t.Fatalf("workers=%d: density/pressure of particle %d differs from serial", w, i)
			}
			if got.AX[i] != ref.AX[i] || got.AY[i] != ref.AY[i] || got.AZ[i] != ref.AZ[i] {
				t.Fatalf("workers=%d: acceleration of particle %d differs from serial", w, i)
			}
			if gotDudt[i] != refDudt[i] {
				t.Fatalf("workers=%d: du/dt of particle %d differs from serial", w, i)
			}
		}
	}
}
