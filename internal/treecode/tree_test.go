package treecode

import (
	"math"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/nbody"
)

func TestMortonKeyRoundTripOrdering(t *testing.T) {
	root := Box{CX: 0.5, CY: 0.5, CZ: 0.5, Half: 0.5001}
	// Same cell at every level ⇒ same ancestor keys.
	at := func(k Key, level int) Key { return k >> (3 * (KeyBits - level)) }
	k1 := MortonKey(0.1, 0.1, 0.1, root)
	k2 := MortonKey(0.1001, 0.1001, 0.1001, root)
	if at(k1, 5) != at(k2, 5) {
		t.Fatal("nearby points diverge at level 5")
	}
	k3 := MortonKey(0.9, 0.9, 0.9, root)
	if at(k1, 1) == at(k3, 1) {
		t.Fatal("distant points share a level-1 cell")
	}
}

// keyLevel returns the depth of a key (root = 0): the sentinel bit sits
// three bits above each level's octant.
func keyLevel(k Key) int { return (bits.Len64(uint64(k)) - 1) / 3 }

func TestKeyAlgebra(t *testing.T) {
	if keyLevel(RootKey) != 0 {
		t.Fatalf("root level = %d", keyLevel(RootKey))
	}
	c := RootKey.Child(5)
	if keyLevel(c) != 1 || c>>3 != RootKey {
		t.Fatalf("child/parent algebra broken: %x", c)
	}
	if c != Key(0b1101) {
		t.Fatalf("child key = %b", c)
	}
	full := MortonKey(0.3, 0.7, 0.2, Box{0.5, 0.5, 0.5, 0.5001})
	if keyLevel(full) != KeyBits {
		t.Fatalf("full key level = %d, want %d", keyLevel(full), KeyBits)
	}
	if full>>(3*KeyBits) != RootKey {
		t.Fatal("level-0 ancestor is not root")
	}
}

func TestKeyLevelProperty(t *testing.T) {
	f := func(x, y, z float64) bool {
		x, y, z = math.Abs(x), math.Abs(y), math.Abs(z)
		if math.IsInf(x, 0) || math.IsNaN(x) || x > 1e150 {
			return true
		}
		root := Box{CX: 0, CY: 0, CZ: 0, Half: 1e151}
		k := MortonKey(x, y, z, root)
		// Parent chain reaches the root in exactly KeyBits steps.
		for i := 0; i < KeyBits; i++ {
			k >>= 3
		}
		return k == RootKey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxOctantGeometry(t *testing.T) {
	b := Box{CX: 0, CY: 0, CZ: 0, Half: 1}
	for oct := 0; oct < 8; oct++ {
		c := b.Octant(oct)
		if c.Half != 0.5 {
			t.Fatalf("octant half = %v", c.Half)
		}
		if !b.Contains(c.CX, c.CY, c.CZ) {
			t.Fatalf("octant %d centre outside parent", oct)
		}
	}
	// All octant centres distinct.
	seen := map[[3]float64]bool{}
	for oct := 0; oct < 8; oct++ {
		c := b.Octant(oct)
		key := [3]float64{c.CX, c.CY, c.CZ}
		if seen[key] {
			t.Fatal("duplicate octant centre")
		}
		seen[key] = true
	}
}

func TestBoxMinDist(t *testing.T) {
	b := Box{CX: 0, CY: 0, CZ: 0, Half: 1}
	if b.MinDist(0.5, 0, 0) != 0 {
		t.Fatal("inside point has nonzero MinDist")
	}
	if got := b.MinDist(3, 0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MinDist = %v, want 2", got)
	}
	if got := b.MinDist(2, 2, 0); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("corner MinDist = %v, want √2", got)
	}
}

func buildFromSystem(t *testing.T, s *nbody.System, opt BuildOptions) *Tree {
	t.Helper()
	tr, err := Build(SourcesFromSystem(s), opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTreeInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 500} {
		for _, bucket := range []int{1, 4, 16} {
			s := nbody.NewPlummer(n, 1, uint64(n*100+bucket))
			tr := buildFromSystem(t, s, BuildOptions{Bucket: bucket})
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d bucket=%d: %v", n, bucket, err)
			}
		}
	}
}

func TestTreeInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, bucketRaw uint8) bool {
		n := 1 + int(nRaw)%200
		bucket := 1 + int(bucketRaw)%16
		s := nbody.NewUniformCube(n, seed)
		tr, err := Build(SourcesFromSystem(s), BuildOptions{Bucket: bucket})
		if err != nil {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoincidentParticles(t *testing.T) {
	// Particles at the same position must not infinitely subdivide.
	s := nbody.NewSystem(10)
	for i := 0; i < 10; i++ {
		s.X[i], s.Y[i], s.Z[i] = 0.5, 0.5, 0.5
		s.M[i] = 0.1
	}
	tr := buildFromSystem(t, s, BuildOptions{Bucket: 2})
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBuildTinySystems drives the thresholds under concurrent
// builds, as every rank of ParallelForces builds its local tree at once:
// single-source trees and a coincident cluster beside an outlier must
// satisfy the invariants and come out the same on every goroutine.
func TestParallelBuildTinySystems(t *testing.T) {
	single := []Source{{X: 0.5, Y: 0.5, Z: 0.5, M: 1, Index: 0}}
	// Coincident particles bottom out at the depth bound inside one leaf.
	var co []Source
	for i := 0; i < 20; i++ {
		co = append(co, Source{X: 0.25, Y: 0.25, Z: 0.25, M: 1, Index: i})
	}
	co = append(co, Source{X: 0.75, Y: 0.75, Z: 0.75, M: 1, Index: 20})
	for _, tc := range []struct {
		name string
		srcs []Source
		opt  BuildOptions
	}{
		{"single", single, BuildOptions{}},
		{"coincident", co, BuildOptions{Bucket: 4}},
	} {
		for _, w := range []int{1, 8} {
			trees := make([]*Tree, w)
			errs := make([]error, w)
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					trees[g], errs[g] = Build(tc.srcs, tc.opt)
				}(g)
			}
			wg.Wait()
			for g := 0; g < w; g++ {
				if errs[g] != nil {
					t.Fatalf("%s goroutines=%d: %v", tc.name, w, errs[g])
				}
				if err := trees[g].CheckInvariants(); err != nil {
					t.Fatalf("%s goroutines=%d: %v", tc.name, w, err)
				}
				if !reflect.DeepEqual(trees[g], trees[0]) {
					t.Fatalf("%s goroutines=%d: tree %d differs from tree 0", tc.name, w, g)
				}
			}
		}
	}
}

func TestTreeForceMatchesDirectAccuracy(t *testing.T) {
	s := nbody.NewPlummer(500, 1, 77)
	s.Eps = 0.02
	ref := nbody.NewPlummer(500, 1, 77)
	ref.Eps = 0.02
	ref.DirectForces()

	for _, theta := range []float64{0.3, 0.7} {
		f := &Forcer{Theta: theta}
		if err := f.Forces(s); err != nil {
			t.Fatal(err)
		}
		// RMS relative force error.
		var sum, norm float64
		for i := 0; i < s.N(); i++ {
			dx := s.AX[i] - ref.AX[i]
			dy := s.AY[i] - ref.AY[i]
			dz := s.AZ[i] - ref.AZ[i]
			a2 := ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i]
			sum += (dx*dx + dy*dy + dz*dz)
			norm += a2
		}
		rms := math.Sqrt(sum / norm)
		limit := 0.02
		if theta < 0.5 {
			limit = 0.005
		}
		if rms > limit {
			t.Fatalf("theta=%v: RMS force error %g > %g", theta, rms, limit)
		}
	}
}

func TestSmallerThetaMoreAccurateMoreWork(t *testing.T) {
	s := nbody.NewPlummer(400, 1, 5)
	run := func(theta float64) (uint64, float64) {
		sys := nbody.NewPlummer(400, 1, 5)
		ref := nbody.NewPlummer(400, 1, 5)
		ref.DirectForces()
		f := &Forcer{Theta: theta}
		if err := f.Forces(sys); err != nil {
			t.Fatal(err)
		}
		var sum, norm float64
		for i := 0; i < sys.N(); i++ {
			dx := sys.AX[i] - ref.AX[i]
			dy := sys.AY[i] - ref.AY[i]
			dz := sys.AZ[i] - ref.AZ[i]
			sum += dx*dx + dy*dy + dz*dz
			norm += ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i]
		}
		return f.LastStats.Interactions(), math.Sqrt(sum / norm)
	}
	w3, e3 := run(0.3)
	w9, e9 := run(0.9)
	if !(w3 > w9) {
		t.Fatalf("theta 0.3 work %d not above theta 0.9 work %d", w3, w9)
	}
	if !(e3 < e9) {
		t.Fatalf("theta 0.3 error %g not below theta 0.9 error %g", e3, e9)
	}
	_ = s
}

func TestTreeBeatsDirectInInteractions(t *testing.T) {
	// O(N log N) vs O(N²): at a few thousand particles the tree must do
	// far fewer interactions.
	n := 3000
	s := nbody.NewPlummer(n, 1, 9)
	f := &Forcer{Theta: 0.7}
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	direct := uint64(n) * uint64(n-1)
	if f.LastStats.Interactions()*4 > direct {
		t.Fatalf("tree interactions %d not ≪ direct %d", f.LastStats.Interactions(), direct)
	}
}

func TestQuadrupoleImprovesAccuracy(t *testing.T) {
	ref := nbody.NewPlummer(600, 1, 21)
	ref.DirectForces()
	rms := func(quad bool) float64 {
		s := nbody.NewPlummer(600, 1, 21)
		f := &Forcer{Theta: 0.8, Quadrupole: quad}
		if err := f.Forces(s); err != nil {
			t.Fatal(err)
		}
		var sum, norm float64
		for i := 0; i < s.N(); i++ {
			dx := s.AX[i] - ref.AX[i]
			dy := s.AY[i] - ref.AY[i]
			dz := s.AZ[i] - ref.AZ[i]
			sum += dx*dx + dy*dy + dz*dz
			norm += ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i]
		}
		return math.Sqrt(sum / norm)
	}
	mono, quad := rms(false), rms(true)
	if quad >= mono {
		t.Fatalf("quadrupole RMS %g not below monopole %g", quad, mono)
	}
}

func TestTreecodeEnergyConservationInIntegration(t *testing.T) {
	s := nbody.NewPlummer(200, 1, 33)
	k0, p0 := s.Energy()
	e0 := k0 + p0
	if err := s.Leapfrog(&Forcer{Theta: 0.5}, 0.002, 50); err != nil {
		t.Fatal(err)
	}
	k1, p1 := s.Energy()
	drift := math.Abs((k1 + p1 - e0) / e0)
	if drift > 0.01 {
		t.Fatalf("treecode integration energy drift %g", drift)
	}
}

func TestStatsFlops(t *testing.T) {
	st := Stats{PP: 10, PC: 5}
	if st.Interactions() != 15 {
		t.Fatal("interaction count")
	}
	if st.Flops() != 15*nbody.FlopsPerInteraction {
		t.Fatal("flop convention")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, BuildOptions{}); err == nil {
		t.Fatal("empty source list accepted")
	}
}

func TestSingleParticleTree(t *testing.T) {
	tr, err := Build([]Source{{X: 1, Y: 2, Z: 3, M: 5, Index: 0}}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var st Stats
	ax, _, _ := tr.ForceAt(1, 2, 3, 0, 0.7, 0.01, &st)
	if ax != 0 || st.Interactions() != 0 {
		t.Fatal("self-interaction not excluded")
	}
	ax, _, _ = tr.ForceAt(0, 2, 3, -1, 0.7, 0, &st)
	if math.Abs(ax-5) > 1e-12 {
		t.Fatalf("force from unit distance = %v, want 5", ax)
	}
}
