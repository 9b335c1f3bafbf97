package treecode

import (
	"math"
	"testing"

	"repro/internal/nbody"
	"repro/internal/obs"
)

// The Forcer must satisfy the block integrator's masked-force contract.
var _ nbody.ActiveForcer = (*Forcer)(nil)

// TestBlockStepWorkerDeterminism is the block-timestep determinism
// contract over the full stack — rung scheduling, masked dual-tree
// forces, selection pruning: the end state of a multi-step block
// integration must be bit-identical at worker counts 1, 2 and 8. CI
// runs this under -race, so it also proves the masked force path never
// shares arenas across workers.
func TestBlockStepWorkerDeterminism(t *testing.T) {
	run := func(w int) (*nbody.System, nbody.RungStats) {
		s := nbody.NewPlummer(2000, 1, 12)
		f := &Forcer{Theta: 0.7, Workers: w}
		var b nbody.BlockStepper
		if err := b.Run(s, f, nbody.BlockConfig{DT: 0.05, MaxRung: 4}, 3); err != nil {
			t.Fatal(err)
		}
		return s, b.Stats
	}
	ref, refStats := run(1)
	if refStats.MaxRungUsed == 0 {
		t.Fatal("hierarchy never engaged — the determinism check would be vacuous")
	}
	if refStats.Saved == 0 {
		t.Fatal("block stepping skipped no force updates")
	}
	for _, w := range []int{2, 8} {
		got, gotStats := run(w)
		if gotStats != refStats {
			t.Fatalf("workers=%d: rung stats %+v differ from serial %+v", w, gotStats, refStats)
		}
		for i := 0; i < ref.N(); i++ {
			if math.Float64bits(ref.X[i]) != math.Float64bits(got.X[i]) ||
				math.Float64bits(ref.VX[i]) != math.Float64bits(got.VX[i]) ||
				math.Float64bits(ref.AX[i]) != math.Float64bits(got.AX[i]) {
				t.Fatalf("workers=%d: particle %d diverged from serial", w, i)
			}
		}
	}
}

// TestBlockStepTreecodeEnergyConservation: the PR 6 acceptance bound —
// |relative energy drift| ≤ 1e-3 over 100 base steps — with the full
// production stack: dual-tree engine, live rung hierarchy, masked
// force updates.
func TestBlockStepTreecodeEnergyConservation(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
	}{{1000, 8}, {4096, 2001}} {
		s := nbody.NewPlummer(tc.n, 1, tc.seed)
		k0, p0 := s.Energy()
		e0 := k0 + p0
		f := &Forcer{Theta: 0.7}
		var b nbody.BlockStepper
		if err := b.Run(s, f, nbody.BlockConfig{DT: 0.01, MaxRung: 4}, 100); err != nil {
			t.Fatal(err)
		}
		k1, p1 := s.Energy()
		drift := math.Abs((k1 + p1 - e0) / e0)
		t.Logf("n=%d: energy drift %.3e over 100 base steps (max rung %d, updates %d, saved %d)",
			tc.n, drift, b.Stats.MaxRungUsed, b.Stats.Updates, b.Stats.Saved)
		if drift > 1e-3 {
			t.Fatalf("n=%d: energy drift %g over 100 base steps, want <= 1e-3", tc.n, drift)
		}
	}
}

// TestBlockStepUpdatesBelowUniform checks the work claim behind the
// block-step speed guard without timing anything: on the guard's system
// (a Plummer sphere with eps 0.001, MaxRung 6; smaller here), the
// hierarchy must do fewer force updates per base step than a uniform
// integrator at the finest occupied rung, n · 2^MaxRungUsed, and the
// nbody.rung.updates counter must move by exactly the stepper's count.
// It fails when the hierarchy is off (every particle on rung 0, so n
// updates against n · 2^0) and when every particle sits on the finest
// rung.
func TestBlockStepUpdatesBelowUniform(t *testing.T) {
	const n, baseSteps = 4000, 1
	s := nbody.NewPlummer(n, 1, 2001)
	s.Eps = 0.001
	updates := func() uint64 {
		snap := obs.NewSnapshot()
		snap.Gather(nbody.RungTelemetry())
		return snap.Counter("nbody.rung.updates")
	}
	before := updates()
	var b nbody.BlockStepper
	if err := b.Run(s, &Forcer{Theta: 0.7}, nbody.BlockConfig{DT: 0.02, MaxRung: 6}, baseSteps); err != nil {
		t.Fatal(err)
	}
	st := b.Stats
	uniform := uint64(n*baseSteps) << st.MaxRungUsed
	t.Logf("max rung %d, histogram %v: %d updates against %d uniform", st.MaxRungUsed, b.Histogram(), st.Updates, uniform)
	if st.Updates >= uniform {
		t.Errorf("%d force updates over %d base steps, want fewer than n·2^%d = %d",
			st.Updates, baseSteps, st.MaxRungUsed, uniform)
	}
	if got := updates() - before; got != st.Updates {
		t.Errorf("nbody.rung.updates moved by %d, stepper counted %d", got, st.Updates)
	}
}
