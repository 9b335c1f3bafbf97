package nas

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

func TestParallelEPMatchesSerialVerification(t *testing.T) {
	// Any rank count must reproduce the serial stream bit-for-bit (via
	// the LCG jump) and therefore pass the official NPB verification.
	for _, p := range []int{1, 2, 3, 8, 24} {
		w, err := mpi.NewWorld(p, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ParallelEP(w, ClassS, cpu.EffCosts{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("p=%d: parallel EP failed NPB verification (checksum %v)", p, res.Checksum)
		}
		if res.Ranks != p {
			t.Fatalf("ranks = %d", res.Ranks)
		}
	}
}

func TestParallelEPSimTimeScales(t *testing.T) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateSmall)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p int) float64 {
		w, _ := mpi.NewWorld(p, netsim.FastEthernet())
		res, err := ParallelEP(w, ClassS, costs)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	t1, t8, t24 := run(1), run(8), run(24)
	if !(t1 > t8 && t8 > t24) {
		t.Fatalf("EP did not scale: %g, %g, %g", t1, t8, t24)
	}
	// EP is embarrassingly parallel: near-ideal speedup.
	if s := t1 / t24; s < 20 {
		t.Fatalf("EP speedup at 24 ranks only %.1f", s)
	}
}

func TestParallelISVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 16} {
		w, err := mpi.NewWorld(p, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ParallelIS(w, ClassS, cpu.EffCosts{})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("p=%d: parallel IS failed verification", p)
		}
		if p > 1 && res.CommByte == 0 {
			t.Fatalf("p=%d: no communication recorded", p)
		}
	}
}

func TestISCreateSeqRangeMatchesSerial(t *testing.T) {
	serial := isCreateSeqRange(0, 1000, 1<<11)
	for _, span := range [][2]int{{0, 100}, {100, 400}, {500, 500}} {
		part := isCreateSeqRange(span[0], span[1], 1<<11)
		for i, k := range part {
			if k != serial[span[0]+i] {
				t.Fatalf("span %v: key %d = %d, serial %d", span, i, k, serial[span[0]+i])
			}
		}
	}
}

func TestBucketBoundsBalanced(t *testing.T) {
	// A uniform histogram must split into near-equal ranges.
	hist := make([]float64, 1000)
	for i := range hist {
		hist[i] = 10
	}
	bounds := bucketBounds(hist, 4, 10000)
	if bounds[0] != 0 {
		t.Fatalf("bounds[0] = %d", bounds[0])
	}
	for r := 1; r < 4; r++ {
		want := r * 250
		if bounds[r] < want-5 || bounds[r] > want+5 {
			t.Fatalf("bounds = %v, want ≈[0 250 500 750]", bounds)
		}
	}
}

func TestParallelISMoreRanksThanKeys(t *testing.T) {
	w, _ := mpi.NewWorld(4, nil)
	// Class with few keys is not available; simulate by checking guard
	// through the public API with an unsupported class.
	if _, err := ParallelIS(w, Class('Z'), cpu.EffCosts{}); err == nil {
		t.Fatal("bad class accepted")
	}
}
