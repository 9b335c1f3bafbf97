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
// undecided-source stack) is warm — on monopole trees, which take the
// lane kernels where the CPU has them, and on quadrupole trees.
func TestDualForceWalkZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	for _, quad := range []bool{false, true} {
		tr := buildFromSystem(t, s, BuildOptions{Quadrupole: quad})
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
			t.Fatalf("quadrupole=%v: DualForceWalk allocates %.1f times per call, want 0", quad, allocs)
		}
	}
}

// TestSelectZeroAlloc pins a masked force call's target selection at
// zero allocations once its prefix buffer has grown to the tree.
func TestSelectZeroAlloc(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 13)
	tr := buildFromSystem(t, s, BuildOptions{})
	active := make([]bool, s.N())
	for i := range active {
		active[i] = i%3 == 0
	}
	var sel Selection
	tr.Select(active, &sel)
	allocs := testing.AllocsPerRun(50, func() { tr.Select(active, &sel) })
	if allocs != 0 {
		t.Fatalf("Select allocates %.1f times per call, want 0", allocs)
	}
	if got, want := sel.count(0, int32(len(tr.Sources))), int32((s.N()+2)/3); got != want {
		t.Fatalf("selection counts %d targets, want %d", got, want)
	}
}

// TestForceSweepZeroAlloc runs full sweeps over every particle — one
// ForceAt walk per particle, and every dual task in turn on one warm
// arena — and pins both at zero
// allocations, up to the n=20000 force-engine benchmark size. (The
// first Forces call on a Forcer still allocates for its tree build.)
func TestForceSweepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
	}{{2000, 29}, {20000, 2001}} {
		s := nbody.NewPlummer(tc.n, 1, tc.seed)
		tr := buildFromSystem(t, s, BuildOptions{})
		var st Stats
		allocs := testing.AllocsPerRun(3, func() {
			for i := 0; i < s.N(); i++ {
				ax, ay, az := tr.ForceAt(s.X[i], s.Y[i], s.Z[i], i, 0.7, s.Eps, &st)
				s.AX[i], s.AY[i], s.AZ[i] = ax, ay, az
			}
		})
		if allocs != 0 {
			t.Fatalf("n=%d: recursive force sweep allocates %.1f times per pass, want 0", tc.n, allocs)
		}
		tasks := tr.AppendGroups(nil, DualTaskSize)
		ar := NewWalkArena()
		allocs = testing.AllocsPerRun(3, func() {
			for _, ti := range tasks {
				tr.DualForceWalk(ti, 0.7, s.Eps, nil, ar, &st)
				for k := 0; k < ar.NumTargets(); k++ {
					j, ax, ay, az := ar.Target(k)
					s.AX[j], s.AY[j], s.AZ[j] = ax, ay, az
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("n=%d: dual force sweep allocates %.1f times per pass, want 0", tc.n, allocs)
		}
	}
}
