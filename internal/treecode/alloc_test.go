package treecode

import (
	"testing"

	"repro/internal/nbody"
)

// TestForceAtZeroAlloc pins the exact per-particle force path at zero
// allocations per call: the recursive walk keeps its state on the
// stack.
func TestForceAtZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	tr := buildFromSystem(t, s, BuildOptions{Quadrupole: true})
	var st Stats
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		tr.ForceAt(s.X[i], s.Y[i], s.Z[i], i, 0.7, s.Eps, &st)
		i = (i + 37) % s.N()
	})
	if allocs != 0 {
		t.Fatalf("ForceAt allocates %.1f times per call, want 0", allocs)
	}
}

// TestDualForceWalkZeroAlloc pins the dual-tree task walk at zero
// allocations per call once the arena (lists, target buffers, and the
// undecided-source stack) is warm.
func TestDualForceWalkZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	tr := buildFromSystem(t, s, BuildOptions{Quadrupole: true})
	tasks := tr.AppendGroups(nil, DualTaskSize)
	ar := NewWalkArena()
	var st Stats
	for _, ti := range tasks {
		tr.DualForceWalk(ti, 0.7, s.Eps, nil, ar, &st)
	}
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		tr.DualForceWalk(tasks[k], 0.7, s.Eps, nil, ar, &st)
		k = (k + 1) % len(tasks)
	})
	if allocs != 0 {
		t.Fatalf("DualForceWalk allocates %.1f times per call, want 0", allocs)
	}
}

// TestForceSweepZeroAlloc runs a full sweep over every particle — the
// exact shape of one worker's chunk loop in the exact engine — and pins
// it at zero allocations. (The whole Forces call still allocates for
// the fresh tree build, which is by design: particles move between
// steps.)
func TestForceSweepZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(2000, 1, 29)
	tr := buildFromSystem(t, s, BuildOptions{})
	var st Stats
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < s.N(); i++ {
			ax, ay, az := tr.ForceAt(s.X[i], s.Y[i], s.Z[i], i, 0.7, s.Eps, &st)
			s.AX[i], s.AY[i], s.AZ[i] = ax, ay, az
		}
	})
	if allocs != 0 {
		t.Fatalf("force sweep allocates %.1f times per pass, want 0", allocs)
	}
}
