package treecode

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/netsim"
)

// TestParallelForcesPoolInvariant pins host scheduling out of the
// treecode's physics and pools: accelerations, interaction counts,
// communication volumes, simulated times and buffer-pool hit/miss
// counts must be bit-for-bit identical across two fresh worlds, whose
// goroutine ranks interleave differently.
func TestParallelForcesPoolInvariant(t *testing.T) {
	const n = 3000
	type outcome struct {
		s            *nbody.System
		res          *ParallelResult
		hits, misses int64
	}
	run := func(p int) outcome {
		s := nbody.NewPlummer(n, 1, 2001)
		w, err := mpi.NewWorld(p, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ParallelForces(w, s, ParallelConfig{Theta: 0.7})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		o := outcome{s: s, res: res}
		o.hits, o.misses = w.PoolStats()
		return o
	}
	for _, p := range []int{2, 8, 24} {
		a, b := run(p), run(p)
		if *a.res != *b.res {
			t.Errorf("p=%d: results differ: %+v vs %+v", p, a.res, b.res)
		}
		if a.hits != b.hits || a.misses != b.misses {
			t.Errorf("p=%d: pool hits/misses %d/%d vs %d/%d", p, a.hits, a.misses, b.hits, b.misses)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(a.s.AX[i]) != math.Float64bits(b.s.AX[i]) ||
				math.Float64bits(a.s.AY[i]) != math.Float64bits(b.s.AY[i]) ||
				math.Float64bits(a.s.AZ[i]) != math.Float64bits(b.s.AZ[i]) {
				t.Fatalf("p=%d: acceleration of particle %d differs", p, i)
			}
		}
	}
}
