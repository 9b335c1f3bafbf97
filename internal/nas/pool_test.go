package nas

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// TestParallelKernelsPoolInvariant pins the substrate's core contract:
// host scheduling is invisible in the physics and in the pools. Results,
// checksums, communication volumes, simulated times and buffer-pool
// hit/miss counts of the distributed kernels must be bit-for-bit
// identical across two fresh worlds, whose goroutine ranks interleave
// differently.
func TestParallelKernelsPoolInvariant(t *testing.T) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res          *ParallelResult
		hits, misses int64
	}
	run := func(p int, kernel func(*mpi.World, Class, cpu.EffCosts) (*ParallelResult, error)) outcome {
		w, err := mpi.NewWorld(p, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		res, err := kernel(w, ClassS, costs)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		o := outcome{res: res}
		o.hits, o.misses = w.PoolStats()
		return o
	}
	for _, p := range []int{2, 8, 24} {
		for name, kernel := range map[string]func(*mpi.World, Class, cpu.EffCosts) (*ParallelResult, error){
			"EP": ParallelEP, "IS": ParallelIS,
		} {
			a, b := run(p, kernel), run(p, kernel)
			if math.Float64bits(a.res.SimTime) != math.Float64bits(b.res.SimTime) {
				t.Errorf("p=%d %s: sim time %x vs %x", p, name,
					math.Float64bits(a.res.SimTime), math.Float64bits(b.res.SimTime))
			}
			if math.Float64bits(a.res.Checksum) != math.Float64bits(b.res.Checksum) {
				t.Errorf("p=%d %s: checksum differs", p, name)
			}
			if a.res.Ops != b.res.Ops || a.res.CommByte != b.res.CommByte {
				t.Errorf("p=%d %s: ops/bytes differ: %+v vs %+v", p, name, a.res, b.res)
			}
			if a.hits != b.hits || a.misses != b.misses {
				t.Errorf("p=%d %s: pool hits/misses %d/%d vs %d/%d", p, name, a.hits, a.misses, b.hits, b.misses)
			}
			if !a.res.Verified {
				t.Errorf("p=%d %s: must verify", p, name)
			}
		}
	}
}
