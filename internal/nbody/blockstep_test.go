package nbody

import (
	"math"
	"testing"
)

// cloneSystem deep-copies a system so two integrators can run the same
// initial conditions.
func cloneSystem(s *System) *System {
	c := *s
	c.X = append([]float64(nil), s.X...)
	c.Y = append([]float64(nil), s.Y...)
	c.Z = append([]float64(nil), s.Z...)
	c.VX = append([]float64(nil), s.VX...)
	c.VY = append([]float64(nil), s.VY...)
	c.VZ = append([]float64(nil), s.VZ...)
	c.AX = append([]float64(nil), s.AX...)
	c.AY = append([]float64(nil), s.AY...)
	c.AZ = append([]float64(nil), s.AZ...)
	c.M = append([]float64(nil), s.M...)
	return &c
}

// TestBlockLeapfrogDegeneratesToLeapfrog: MaxRung = 0 must reproduce
// plain Leapfrog bit for bit — same schedule, same force calls, same
// arithmetic shapes.
func TestBlockLeapfrogDegeneratesToLeapfrog(t *testing.T) {
	ref := NewPlummer(300, 1, 9)
	blk := cloneSystem(ref)
	if err := ref.Leapfrog(DirectForcer{}, 0.005, 10); err != nil {
		t.Fatal(err)
	}
	var b BlockStepper
	if err := b.Run(blk, DirectForcer{}, BlockConfig{DT: 0.005}, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.N(); i++ {
		if math.Float64bits(ref.X[i]) != math.Float64bits(blk.X[i]) ||
			math.Float64bits(ref.VX[i]) != math.Float64bits(blk.VX[i]) ||
			math.Float64bits(ref.AX[i]) != math.Float64bits(blk.AX[i]) {
			t.Fatalf("particle %d: MaxRung=0 block step diverged from Leapfrog", i)
		}
	}
}

// TestBlockStepperEnergyAndMomentum: with a live rung hierarchy the
// integration must still conserve energy to the |ΔE/E| ≤ 1e-3 level
// the PR 6 guard demands, keep momentum bounded, and do strictly less
// force work than uniform stepping at the finest occupied dt.
func TestBlockStepperEnergyAndMomentum(t *testing.T) {
	s := NewPlummer(256, 1, 42)
	k0, p0 := s.Energy()
	e0 := k0 + p0
	px0, py0, pz0 := s.momentum()
	var b BlockStepper
	if err := b.Run(s, DirectForcer{}, BlockConfig{DT: 0.01, MaxRung: 4, Eta: 0.05}, 100); err != nil {
		t.Fatal(err)
	}
	k1, p1 := s.Energy()
	drift := math.Abs((k1 + p1 - e0) / e0)
	t.Logf("energy drift %.3e over 100 base steps; max rung %d; updates %d, saved %d",
		drift, b.Stats.MaxRungUsed, b.Stats.Updates, b.Stats.Saved)
	if drift > 1e-3 {
		t.Fatalf("energy drift %g over 100 base steps, want <= 1e-3", drift)
	}
	// Asynchronous force updates break the exact pairwise cancellation
	// uniform leapfrog enjoys, so momentum drifts at the truncation
	// level rather than roundoff — it must stay far below typical
	// particle momenta (~1/N here).
	px1, py1, pz1 := s.momentum()
	if math.Abs(px1-px0)+math.Abs(py1-py0)+math.Abs(pz1-pz0) > 1e-4 {
		t.Fatal("momentum drifted beyond the truncation level")
	}
	if b.Stats.MaxRungUsed == 0 {
		t.Fatal("no particle left rung 0 — the hierarchy never engaged")
	}
	if b.Stats.Saved == 0 {
		t.Fatal("block stepping saved no force updates")
	}
	if b.Stats.Updates+b.Stats.Saved != b.Stats.Substeps*uint64(s.N()) {
		t.Fatalf("update accounting inconsistent: %d + %d != %d substep-particles",
			b.Stats.Updates, b.Stats.Saved, b.Stats.Substeps*uint64(s.N()))
	}
}

// TestBlockStepperRungSanity: rung assignments stay within bounds,
// inner (high-acceleration) particles sit on finer rungs than the mean
// of the outer halo, and the histogram covers every particle.
func TestBlockStepperRungSanity(t *testing.T) {
	s := NewPlummer(512, 1, 7)
	var b BlockStepper
	if err := b.Run(s, DirectForcer{}, BlockConfig{DT: 0.01, MaxRung: 5}, 1); err != nil {
		t.Fatal(err)
	}
	var total int
	for _, c := range b.Histogram() {
		total += c
	}
	if total != s.N() {
		t.Fatalf("histogram covers %d of %d particles", total, s.N())
	}
	var innerSum, innerN, outerSum, outerN float64
	for i, r := range b.Rungs() {
		if r < 0 || int(r) > 5 {
			t.Fatalf("particle %d on rung %d outside [0, 5]", i, r)
		}
		rad := math.Sqrt(s.X[i]*s.X[i] + s.Y[i]*s.Y[i] + s.Z[i]*s.Z[i])
		if rad < 0.5 {
			innerSum += float64(r)
			innerN++
		} else if rad > 2 {
			outerSum += float64(r)
			outerN++
		}
	}
	if innerN == 0 || outerN == 0 {
		t.Skip("degenerate radial split")
	}
	if innerSum/innerN <= outerSum/outerN {
		t.Fatalf("inner particles on coarser rungs (%.2f) than outer (%.2f)",
			innerSum/innerN, outerSum/outerN)
	}
}

// TestBlockStepperRequiresActiveForcer: a forcer without ForcesActive
// cannot serve a rung hierarchy and must be rejected up front.
func TestBlockStepperRequiresActiveForcer(t *testing.T) {
	plain := forcerFunc(func(s *System) error { s.DirectForces(); return nil })
	s := NewPlummer(32, 1, 1)
	var b BlockStepper
	if err := b.Run(s, plain, BlockConfig{DT: 0.01, MaxRung: 2}, 1); err == nil {
		t.Fatal("MaxRung > 0 accepted a forcer without ForcesActive")
	}
	// MaxRung = 0 needs no masked path.
	if err := b.Run(s, plain, BlockConfig{DT: 0.01}, 1); err != nil {
		t.Fatal(err)
	}
}

type forcerFunc func(*System) error

func (f forcerFunc) Forces(s *System) error { return f(s) }

// TestBlockStepperValidation covers the config guards.
func TestBlockStepperValidation(t *testing.T) {
	s := NewPlummer(16, 1, 2)
	var b BlockStepper
	if err := b.Run(s, DirectForcer{}, BlockConfig{DT: 0}, 1); err == nil {
		t.Fatal("accepted DT=0")
	}
	if err := b.Run(s, DirectForcer{}, BlockConfig{DT: 0.01, MaxRung: MaxRungLimit + 1}, 1); err == nil {
		t.Fatal("accepted MaxRung beyond limit")
	}
	if err := b.Run(s, DirectForcer{}, BlockConfig{DT: 0.01}, -1); err == nil {
		t.Fatal("accepted negative steps")
	}
}

// TestRungTelemetry: a block run must flush substep/update/saved/kick
// counts to the package counters.
func TestRungTelemetry(t *testing.T) {
	before := rungUpdates.Value()
	beforeSaved := rungSaved.Value()
	s := NewPlummer(128, 1, 77)
	var b BlockStepper
	if err := b.Run(s, DirectForcer{}, BlockConfig{DT: 0.01, MaxRung: 3}, 2); err != nil {
		t.Fatal(err)
	}
	if rungUpdates.Value() == before {
		t.Fatal("no force updates recorded")
	}
	if rungSaved.Value() == beforeSaved {
		t.Fatal("no saved updates recorded")
	}
}
