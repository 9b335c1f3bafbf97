package treecode

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nbody"
)

// drift advances positions ballistically — enough motion to churn keys
// and octant structure without running a full integrator.
func drift(s *nbody.System, dt float64) {
	for i := 0; i < s.N(); i++ {
		s.X[i] += s.VX[i] * dt
		s.Y[i] += s.VY[i] * dt
		s.Z[i] += s.VZ[i] * dt
	}
}

// requireSameTree fails unless the two trees are bit-identical:
// geometry, node array (ropes, structure and every float), boxes,
// quadrupoles and source order.
func requireSameTree(t *testing.T, got, want *Tree, label string) {
	t.Helper()
	fb := math.Float64bits
	sameBox := func(g, w Box) bool {
		return fb(g.CX) == fb(w.CX) && fb(g.CY) == fb(w.CY) && fb(g.CZ) == fb(w.CZ) && fb(g.Half) == fb(w.Half)
	}
	if !sameBox(got.Root, want.Root) {
		t.Fatalf("%s: root box differs: %+v vs %+v", label, got.Root, want.Root)
	}
	if len(got.Nodes) != len(want.Nodes) || len(got.Boxes) != len(want.Boxes) || len(got.Quad) != len(want.Quad) {
		t.Fatalf("%s: %d/%d/%d nodes/boxes/quad terms, want %d/%d/%d", label,
			len(got.Nodes), len(got.Boxes), len(got.Quad), len(want.Nodes), len(want.Boxes), len(want.Quad))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Skip != w.Skip || g.Leaf != w.Leaf || g.First != w.First || g.Count != w.Count {
			t.Fatalf("%s: node %d structure differs:\n got %+v\nwant %+v", label, i, g, w)
		}
		same := fb(g.M) == fb(w.M) && fb(g.CX) == fb(w.CX) && fb(g.CY) == fb(w.CY) && fb(g.CZ) == fb(w.CZ) &&
			fb(g.Size2) == fb(w.Size2)
		if !same {
			t.Fatalf("%s: node %d moments differ:\n got %+v\nwant %+v", label, i, g, w)
		}
		if !sameBox(got.Boxes[i], want.Boxes[i]) {
			t.Fatalf("%s: box %d differs: %+v vs %+v", label, i, got.Boxes[i], want.Boxes[i])
		}
	}
	for i := range want.Quad {
		if fb(got.Quad[i]) != fb(want.Quad[i]) {
			t.Fatalf("%s: quadrupole term %d differs", label, i)
		}
	}
	if len(got.Sources) != len(want.Sources) {
		t.Fatalf("%s: %d sources, want %d", label, len(got.Sources), len(want.Sources))
	}
	for i := range want.Sources {
		g, w := got.Sources[i], want.Sources[i]
		if g.Index != w.Index || fb(g.X) != fb(w.X) || fb(g.Y) != fb(w.Y) || fb(g.Z) != fb(w.Z) || fb(g.M) != fb(w.M) {
			t.Fatalf("%s: source %d differs: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestScratchBuildZeroAlloc pins the Forcer's build: once a scratch
// is warm (buffers sized), a build over a *moving* system — keying,
// sort and the construction of nodes, boxes and quadrupoles — performs
// zero allocations, and its tree is bit-identical to a fresh Build.
func TestScratchBuildZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
		quad bool
		dt   float64
	}{{4000, 13, true, 0.02}, {20000, 2001, false, 0.005}} {
		s := nbody.NewPlummer(tc.n, 1, tc.seed)
		opt := BuildOptions{Quadrupole: tc.quad}
		var sc forceScratch
		step := func() *Tree {
			drift(s, tc.dt)
			sc.srcs = AppendSources(sc.srcs[:0], s)
			tr, err := sc.build(sc.srcs, opt)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		// Warm: a few moving builds so every buffer reaches steady size.
		for i := 0; i < 5; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(100, func() { step() })
		if allocs != 0 {
			t.Fatalf("n=%d: warm scratch build allocates %.2f times per call, want 0", tc.n, allocs)
		}
		got := step()
		want, err := Build(SourcesFromSystem(s), opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want, fmt.Sprintf("n=%d", tc.n))
	}
}

// freshForcer is the fresh-storage reference for a reused Forcer: every
// call gets a new Forcer, so every call builds its tree into new
// storage.
type freshForcer struct{ workers int }

func (f freshForcer) Forces(s *nbody.System) error { return f.ForcesActive(s, nil) }

func (f freshForcer) ForcesActive(s *nbody.System, active []bool) error {
	return (&Forcer{Theta: 0.7, Workers: f.workers}).ForcesActive(s, active)
}

// requireSameState fails unless two systems agree bit for bit in
// position, velocity and acceleration.
func requireSameState(t *testing.T, got, want *nbody.System, label string) {
	t.Helper()
	fb := math.Float64bits
	for i := 0; i < want.N(); i++ {
		if fb(want.X[i]) != fb(got.X[i]) || fb(want.VX[i]) != fb(got.VX[i]) || fb(want.AX[i]) != fb(got.AX[i]) {
			t.Fatalf("%s: particle %d diverged from the fresh-build reference", label, i)
		}
	}
}

// TestForcerReuseLeapfrogBitIdentical: the integration contract — a
// multi-step Leapfrog on one Forcer, which builds every step's tree
// into the storage of the step before, is bit-identical to building
// every step's tree fresh, at worker widths 1, 2 and 8 (CI runs this
// under -race).
func TestForcerReuseLeapfrogBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		n     int
		seed  uint64
		dt    float64
		steps int
	}{{2000, 12, 0.01, 8}, {4096, 7, 0.005, 4}} {
		run := func(f nbody.Forcer) *nbody.System {
			s := nbody.NewPlummer(tc.n, 1, tc.seed)
			if err := s.Leapfrog(f, tc.dt, tc.steps); err != nil {
				t.Fatal(err)
			}
			return s
		}
		ref := run(freshForcer{workers: 1})
		for _, w := range []int{1, 2, 8} {
			requireSameState(t, run(&Forcer{Theta: 0.7, Workers: w}), ref,
				fmt.Sprintf("n=%d workers=%d", tc.n, w))
		}
	}
}

// TestForcerReuseBlockStepBitIdentical: same contract over the block
// timestep integrator, whose masked ForcesActive calls build many
// times per base step.
func TestForcerReuseBlockStepBitIdentical(t *testing.T) {
	run := func(f nbody.ActiveForcer) (*nbody.System, nbody.RungStats) {
		s := nbody.NewPlummer(2000, 1, 12)
		var b nbody.BlockStepper
		if err := b.Run(s, f, nbody.BlockConfig{DT: 0.05, MaxRung: 4}, 3); err != nil {
			t.Fatal(err)
		}
		return s, b.Stats
	}
	ref, refStats := run(freshForcer{workers: 1})
	if refStats.MaxRungUsed == 0 {
		t.Fatal("hierarchy never engaged — the determinism check would be vacuous")
	}
	for _, w := range []int{1, 2, 8} {
		got, gotStats := run(&Forcer{Theta: 0.7, Workers: w})
		if gotStats != refStats {
			t.Fatalf("workers=%d: rung stats %+v differ from %+v", w, gotStats, refStats)
		}
		requireSameState(t, got, ref, fmt.Sprintf("workers=%d", w))
	}
}

// TestForcerReuseAcrossSizes: one Forcer serving systems of changing
// size with Quadrupole toggled between calls — its storage shrinking,
// growing and switching moment order — gives, call by call, the same
// accelerations and work counts as a fresh Forcer.
func TestForcerReuseAcrossSizes(t *testing.T) {
	// Each size has a system for the reused Forcer and a twin for the
	// fresh ones, drifted alike.
	systems := map[int][2]*nbody.System{}
	for _, n := range []int{2000, 4096} {
		systems[n] = [2]*nbody.System{nbody.NewPlummer(n, 1, uint64(n)), nbody.NewPlummer(n, 1, uint64(n))}
	}
	reused := &Forcer{Theta: 0.7}
	fb := math.Float64bits
	for call, tc := range []struct {
		n    int
		quad bool
	}{{2000, false}, {4096, true}, {2000, true}, {2000, false}, {4096, false}, {2000, true}} {
		s, ref := systems[tc.n][0], systems[tc.n][1]
		drift(s, 0.05)
		drift(ref, 0.05)
		reused.Quadrupole = tc.quad
		if err := reused.Forces(s); err != nil {
			t.Fatal(err)
		}
		fresh := &Forcer{Theta: 0.7, Quadrupole: tc.quad}
		if err := fresh.Forces(ref); err != nil {
			t.Fatal(err)
		}
		if reused.LastStats != fresh.LastStats {
			t.Fatalf("call %d (n=%d quad=%v): stats %+v, fresh %+v", call, tc.n, tc.quad, reused.LastStats, fresh.LastStats)
		}
		for i := 0; i < s.N(); i++ {
			if fb(s.AX[i]) != fb(ref.AX[i]) || fb(s.AY[i]) != fb(ref.AY[i]) || fb(s.AZ[i]) != fb(ref.AZ[i]) {
				t.Fatalf("call %d (n=%d quad=%v): particle %d's acceleration differs from a fresh Forcer's", call, tc.n, tc.quad, i)
			}
		}
	}
}
