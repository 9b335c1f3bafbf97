package vortex

import (
	"testing"

	"repro/internal/par"
	"repro/internal/treecode"
)

// TestSelfVelocitiesBitIdentical asserts the parallel Biot–Savart
// evaluation (and its six concurrent tree builds) is bit-identical to
// serial at worker counts 1, 2 and 8, including interaction stats.
func TestSelfVelocitiesBitIdentical(t *testing.T) {
	defer par.SetWorkers(0)
	run := func(w int) (ux, uy, uz []float64, st treecode.Stats) {
		par.SetWorkers(w)
		ring := Ring(700, 1, 1)
		ux, uy, uz, st, err := ring.SelfVelocities(0.5)
		if err != nil {
			t.Fatal(err)
		}
		return ux, uy, uz, st
	}
	rx, ry, rz, rst := run(1)
	for _, w := range []int{2, 8} {
		gx, gy, gz, gst := run(w)
		if gst != rst {
			t.Fatalf("workers=%d stats %+v differ from serial %+v", w, gst, rst)
		}
		for i := range rx {
			if gx[i] != rx[i] || gy[i] != ry[i] || gz[i] != rz[i] {
				t.Fatalf("workers=%d: velocity of particle %d differs from serial", w, i)
			}
		}
	}
}
