package treecode

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/nbody"
	"repro/internal/sim"
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
// geometry, node array (keys, structure and every float), source
// order and walk index.
func requireSameTree(t *testing.T, got, want *Tree, label string) {
	t.Helper()
	fb := math.Float64bits
	if fb(got.Root.CX) != fb(want.Root.CX) || fb(got.Root.CY) != fb(want.Root.CY) ||
		fb(got.Root.CZ) != fb(want.Root.CZ) || fb(got.Root.Half) != fb(want.Root.Half) {
		t.Fatalf("%s: root box differs: %+v vs %+v", label, got.Root, want.Root)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		if g.Key != w.Key || g.Leaf != w.Leaf || g.First != w.First || g.Count != w.Count ||
			g.Children != w.Children {
			t.Fatalf("%s: node %d structure differs:\n got %+v\nwant %+v", label, i, g, w)
		}
		same := fb(g.M) == fb(w.M) && fb(g.CX) == fb(w.CX) && fb(g.CY) == fb(w.CY) && fb(g.CZ) == fb(w.CZ) &&
			fb(g.Box.CX) == fb(w.Box.CX) && fb(g.Box.Half) == fb(w.Box.Half) &&
			fb(g.QXX) == fb(w.QXX) && fb(g.QYY) == fb(w.QYY) && fb(g.QZZ) == fb(w.QZZ) &&
			fb(g.QXY) == fb(w.QXY) && fb(g.QXZ) == fb(w.QXZ) && fb(g.QYZ) == fb(w.QYZ)
		if !same {
			t.Fatalf("%s: node %d moments differ:\n got %+v\nwant %+v", label, i, g, w)
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
	gw, gb, gq := got.walkIndex()
	ww, wb, wq := want.walkIndex()
	if len(gw) != len(ww) || len(gq) != len(wq) {
		t.Fatalf("%s: walk index sizes differ (%d/%d vs %d/%d)", label, len(gw), len(gq), len(ww), len(wq))
	}
	for i := range ww {
		g, w := gw[i], ww[i]
		if g.skip != w.skip || g.leaf != w.leaf || g.first != w.first || g.count != w.count ||
			fb(g.cx) != fb(w.cx) || fb(g.cy) != fb(w.cy) || fb(g.cz) != fb(w.cz) ||
			fb(g.m) != fb(w.m) || fb(g.size2) != fb(w.size2) {
			t.Fatalf("%s: walk node %d differs: %+v vs %+v", label, i, g, w)
		}
		if fb(gb[i].CX) != fb(wb[i].CX) || fb(gb[i].Half) != fb(wb[i].Half) {
			t.Fatalf("%s: walk box %d differs", label, i)
		}
	}
	for i := range wq {
		if fb(gq[i]) != fb(wq[i]) {
			t.Fatalf("%s: walk quad %d differs", label, i)
		}
	}
}

// TestTreeCacheMatchesBuild is the maintainer's core contract: over a
// sequence of drifting snapshots, Step's tree is bit-identical to a
// fresh Build at every step — keys, structure, moments and walk index —
// for monopole and quadrupole trees and across bucket sizes.
func TestTreeCacheMatchesBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  BuildOptions
		dt   float64
	}{
		{"mono", BuildOptions{}, 0.05},
		{"quad", BuildOptions{Quadrupole: true}, 0.05},
		{"bucket4-large-dt", BuildOptions{Bucket: 4}, 0.5},
		{"workers8", BuildOptions{Workers: 8}, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := nbody.NewPlummer(3000, 1, 42)
			c := NewTreeCache()
			for step := 0; step < 6; step++ {
				srcs := SourcesFromSystem(s)
				got, err := c.Step(srcs, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Build(srcs, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTree(t, got, want, tc.name)
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				drift(s, tc.dt)
			}
			if c.Stats.Steps != 6 || c.Stats.FullBuilds != 1 {
				t.Fatalf("stats = %+v, want 6 steps with 1 full build", c.Stats)
			}
		})
	}
}

// TestTreeCacheRadixFallback teleports a third of the particles each
// step — far beyond the adaptive merge's mover bound — and checks the
// radix path still lands on Build's exact order.
func TestTreeCacheRadixFallback(t *testing.T) {
	s := nbody.NewPlummer(2000, 1, 7)
	c := NewTreeCache()
	rng := sim.NewRNG(99)
	for step := 0; step < 4; step++ {
		srcs := SourcesFromSystem(s)
		got, err := c.Step(srcs, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(srcs, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want, "radix")
		for i := 0; i < s.N(); i += 3 {
			s.X[i] = 4*rng.Float64() - 2
			s.Y[i] = 4*rng.Float64() - 2
			s.Z[i] = 4*rng.Float64() - 2
		}
	}
	if c.Stats.KeysMoved == 0 {
		t.Fatal("teleporting particles moved no keys")
	}
}

// TestTreeCacheCoincident pins the tie-break identity: coincident
// particles (equal keys) must sort by input index on both the fresh and
// the maintained path.
func TestTreeCacheCoincident(t *testing.T) {
	s := nbody.NewPlummer(600, 1, 3)
	// Park clumps of particles on shared positions.
	for i := 0; i < 100; i++ {
		j := (i * 7) % s.N()
		k := (i*13 + 1) % s.N()
		s.X[j], s.Y[j], s.Z[j] = s.X[k], s.Y[k], s.Z[k]
	}
	c := NewTreeCache()
	for step := 0; step < 3; step++ {
		srcs := SourcesFromSystem(s)
		got, err := c.Step(srcs, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(srcs, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, got, want, "coincident")
		drift(s, 0.05)
	}
}

// TestTreeCacheInvalidation: a source-count or structural-option change
// falls back to a full build; a worker-width change must NOT (the tree
// is width-invariant).
func TestTreeCacheInvalidation(t *testing.T) {
	s := nbody.NewPlummer(1500, 1, 11)
	c := NewTreeCache()
	step := func(s *nbody.System, opt BuildOptions) {
		t.Helper()
		if _, err := c.Step(SourcesFromSystem(s), opt); err != nil {
			t.Fatal(err)
		}
	}
	step(s, BuildOptions{})
	step(s, BuildOptions{})
	if c.Stats.FullBuilds != 1 {
		t.Fatalf("steady steps rebuilt: %+v", c.Stats)
	}
	step(s, BuildOptions{Workers: 4}) // width change: no invalidation
	if c.Stats.FullBuilds != 1 {
		t.Fatalf("worker change forced a full build: %+v", c.Stats)
	}
	step(s, BuildOptions{Bucket: 4}) // structural change
	if c.Stats.FullBuilds != 2 {
		t.Fatalf("bucket change did not rebuild: %+v", c.Stats)
	}
	step(nbody.NewPlummer(1000, 1, 11), BuildOptions{Bucket: 4}) // n change
	if c.Stats.FullBuilds != 3 {
		t.Fatalf("n change did not rebuild: %+v", c.Stats)
	}
	step(s, BuildOptions{Bucket: 4, Quadrupole: true}) // moment change
	if c.Stats.FullBuilds != 4 {
		t.Fatalf("quadrupole change did not rebuild: %+v", c.Stats)
	}
}

// TestTreeCacheCleanStep: with frozen positions the whole structure is
// clean — no subtree rebuilt, no key moved.
func TestTreeCacheCleanStep(t *testing.T) {
	s := nbody.NewPlummer(2000, 1, 5)
	c := NewTreeCache()
	if _, err := c.Step(SourcesFromSystem(s), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(SourcesFromSystem(s), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if c.Last.CleanSteps != 1 || c.Last.SubtreesRebuilt != 0 || c.Last.KeysMoved != 0 {
		t.Fatalf("frozen step not clean: %+v", c.Last)
	}
	if c.Last.NodesReused != uint64(len(c.Tree().Nodes)) {
		t.Fatalf("clean step reused %d of %d nodes", c.Last.NodesReused, len(c.Tree().Nodes))
	}
}

// TestTreeCacheStepZeroAlloc is the tentpole's steady-state pin: once
// the cache is warm (buffers sized, walk index live), a maintainer step
// over a *moving* system — keying, re-sort, patch and walk-index
// maintenance — performs zero allocations.
func TestTreeCacheStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed uint64
		quad bool
		dt   float64
	}{{4000, 13, true, 0.02}, {20000, 2001, false, 0.005}} {
		s := nbody.NewPlummer(tc.n, 1, tc.seed)
		opt := BuildOptions{Quadrupole: tc.quad, Workers: 1}
		c := NewTreeCache()
		srcs := SourcesFromSystem(s)
		// Warm: adopt, force the walk index alive (as a force sweep
		// would), and run a few moving steps so every buffer reaches
		// steady size.
		for i := 0; i < 5; i++ {
			tr, err := c.Step(AppendSources(srcs[:0], s), opt)
			if err != nil {
				t.Fatal(err)
			}
			tr.walkIndex()
			drift(s, tc.dt)
		}
		allocs := testing.AllocsPerRun(100, func() {
			drift(s, tc.dt)
			if _, err := c.Step(AppendSources(srcs[:0], s), opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("n=%d: maintainer step allocates %.2f times per step, want 0", tc.n, allocs)
		}
	}
}

// freshForcer is the fresh-build reference for the maintainer: every
// call gets a new Forcer, so every call builds its tree from scratch.
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
// multi-step Leapfrog on one Forcer, whose maintainer carries the tree
// from step to step, is bit-identical to building every step's tree
// fresh, at worker widths 1, 2 and 8 (CI runs this under -race).
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
// timestep integrator, whose masked ForcesActive calls hit the
// maintainer many times per base step.
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

// TestTreeCacheKeySortMatchesComparator: the one key sort (Build's, the
// maintainer's fallback and Decompose's) lands on exactly the order of
// a comparator sort on (key, index) — over random keys, many coincident
// particles, keys that differ only in the top or only in the bottom
// byte (one radix pass each), and at n = 1 and 2.
func TestTreeCacheKeySortMatchesComparator(t *testing.T) {
	rng := sim.NewRNG(5)
	gen := func(n int, key func(i int) Key) []Key {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = key(i)
		}
		return keys
	}
	const n = 3000
	cases := map[string][]Key{
		"random":     gen(n, func(int) Key { return Key(rng.Uint64()) }),
		"coincident": gen(n, func(int) Key { return RootKey<<60 | Key(rng.Intn(5)) }),
		"top-byte":   gen(n, func(int) Key { return Key(rng.Intn(256))<<56 | 0x0123456789abcd }),
		"low-byte":   gen(n, func(int) Key { return RootKey<<63 | Key(rng.Intn(256)) }),
		"one":        {RootKey << 63},
		"two-equal":  {7, 7},
		"two-desc":   {9, 3},
	}
	for name, keys := range cases {
		want := make([]int, len(keys))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			ka, kb := keys[want[a]], keys[want[b]]
			if ka != kb {
				return ka < kb
			}
			return want[a] < want[b]
		})
		got := make([]int, len(keys))
		sortKeyPerm(got, keys, make([]int, len(keys)))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d holds %d, comparator order has %d", name, i, got[i], want[i])
			}
		}
	}
}
