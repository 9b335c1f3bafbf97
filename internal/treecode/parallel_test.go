package treecode

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/netsim"
)

func TestDecomposeCoversAllParticles(t *testing.T) {
	s := nbody.NewPlummer(100, 1, 4)
	for _, p := range []int{1, 2, 3, 8, 24} {
		parts, err := Decompose(s, p)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, s.N())
		total := 0
		for _, part := range parts {
			for _, i := range part {
				if seen[i] {
					t.Fatalf("p=%d: particle %d assigned twice", p, i)
				}
				seen[i] = true
				total++
			}
		}
		if total != s.N() {
			t.Fatalf("p=%d: covered %d of %d", p, total, s.N())
		}
		// Balance: ranks differ by at most 1 particle.
		for _, part := range parts {
			if len(part) < s.N()/p || len(part) > s.N()/p+1 {
				t.Fatalf("p=%d: imbalanced part size %d", p, len(part))
			}
		}
	}
}

func TestDecomposeValidation(t *testing.T) {
	s := nbody.NewPlummer(10, 1, 1)
	if _, err := Decompose(s, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := Decompose(nbody.NewSystem(0), 2); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestBoxToBoxDist(t *testing.T) {
	a := Box{0, 0, 0, 1}
	b := Box{5, 0, 0, 1}
	if got := boxToBoxDist(a, b); math.Abs(got-3) > 1e-12 {
		t.Fatalf("dist = %v, want 3", got)
	}
	c := Box{1.5, 0, 0, 1}
	if got := boxToBoxDist(a, c); got != 0 {
		t.Fatalf("overlapping boxes dist = %v", got)
	}
}

func TestLETExportSmallerThanFullDomain(t *testing.T) {
	s := nbody.NewPlummer(2000, 1, 8)
	tr := buildFromSystem(t, s, BuildOptions{Bucket: 8})
	// A distant remote domain needs far fewer sources than N.
	remote := Box{CX: 100, CY: 0, CZ: 0, Half: 1}
	let := tr.letExport(nil, remote, 0.7)
	if len(let) == 0 {
		t.Fatal("empty LET")
	}
	if len(let) > s.N()/10 {
		t.Fatalf("LET for a distant domain has %d of %d sources", len(let), s.N())
	}
	// Mass is conserved by the export.
	var m float64
	for _, src := range let {
		m += src.M
	}
	if math.Abs(m-1) > 1e-9 {
		t.Fatalf("LET mass %v, want 1", m)
	}
	// An overlapping domain needs more sources than a distant one.
	near := tr.letExport(nil, Box{CX: 0, CY: 0, CZ: 0, Half: 1}, 0.7)
	if len(near) <= len(let) {
		t.Fatalf("near LET (%d) not larger than far LET (%d)", len(near), len(let))
	}
}

func parallelVsDirect(t *testing.T, n, p int, theta float64) float64 {
	t.Helper()
	ref := nbody.NewPlummer(n, 1, 55)
	ref.Eps = 0.02
	ref.DirectForces()

	s := nbody.NewPlummer(n, 1, 55)
	s.Eps = 0.02
	w, err := mpi.NewWorld(p, netsim.FastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParallelForces(w, s, ParallelConfig{Theta: theta, Eps: s.Eps})
	if err != nil {
		t.Fatal(err)
	}
	var sum, norm float64
	for i := 0; i < n; i++ {
		dx := s.AX[i] - ref.AX[i]
		dy := s.AY[i] - ref.AY[i]
		dz := s.AZ[i] - ref.AZ[i]
		sum += dx*dx + dy*dy + dz*dz
		norm += ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i]
	}
	return math.Sqrt(sum / norm)
}

func TestParallelForcesAccuracy(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 8} {
		rms := parallelVsDirect(t, 600, p, 0.5)
		if rms > 0.01 {
			t.Fatalf("p=%d: parallel RMS force error %g", p, rms)
		}
	}
}

func TestParallelMatchesSerialTreeClosely(t *testing.T) {
	// The LET construction must not lose accuracy relative to the serial
	// treecode at the same theta (both vs direct).
	serialErr := func() float64 {
		ref := nbody.NewPlummer(600, 1, 55)
		ref.Eps = 0.02
		ref.DirectForces()
		s := nbody.NewPlummer(600, 1, 55)
		s.Eps = 0.02
		f := &Forcer{Theta: 0.5}
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
	}()
	parErr := parallelVsDirect(t, 600, 4, 0.5)
	if parErr > 5*serialErr+1e-6 {
		t.Fatalf("parallel error %g far above serial %g", parErr, serialErr)
	}
}

func TestParallelSimTimeScales(t *testing.T) {
	// With modelled per-interaction cost, more ranks must reduce the
	// simulated makespan (up to communication overhead) for a decent N.
	n := 4000
	cost := CostModel{SecondsPerInteraction: 200e-9, SecondsPerBuildSource: 300e-9}
	run := func(p int) float64 {
		s := nbody.NewPlummer(n, 1, 12)
		w, err := mpi.NewWorld(p, netsim.FastEthernet())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ParallelForces(w, s, ParallelConfig{Theta: 0.7, Eps: 0.01, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		if res.SimTime <= 0 {
			t.Fatal("no simulated time")
		}
		return res.SimTime
	}
	t1, t4, t16 := run(1), run(4), run(16)
	if !(t1 > t4 && t4 > t16) {
		t.Fatalf("no speedup: t1=%g t4=%g t16=%g", t1, t4, t16)
	}
	s4 := t1 / t4
	if s4 < 2.5 || s4 > 4.01 {
		t.Fatalf("4-rank speedup %g implausible", s4)
	}
	// Efficiency drops with P (communication overhead — the paper's
	// Table 2 observation).
	e4 := t1 / t4 / 4
	e16 := t1 / t16 / 16
	if e16 >= e4 {
		t.Fatalf("efficiency did not drop: e4=%g e16=%g", e4, e16)
	}
}

func TestParallelCommVolumeReported(t *testing.T) {
	s := nbody.NewPlummer(500, 1, 3)
	w, _ := mpi.NewWorld(4, netsim.FastEthernet())
	res, err := ParallelForces(w, s, ParallelConfig{Theta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommBytes == 0 || res.CommMessages == 0 || res.ImportedSources == 0 {
		t.Fatalf("communication not accounted: %+v", res)
	}
	if res.Stats.Interactions() == 0 {
		t.Fatal("no interactions recorded")
	}
}

func TestParallelIntegrationConservesEnergy(t *testing.T) {
	// Drive leapfrog with parallel forces via a closure Forcer.
	s := nbody.NewPlummer(300, 1, 17)
	k0, p0 := s.Energy()
	e0 := k0 + p0
	pf := forcerFunc(func(sys *nbody.System) error {
		w, err := mpi.NewWorld(4, nil)
		if err != nil {
			return err
		}
		_, err = ParallelForces(w, sys, ParallelConfig{Theta: 0.5, Eps: sys.Eps})
		return err
	})
	if err := s.Leapfrog(pf, 0.002, 30); err != nil {
		t.Fatal(err)
	}
	k1, p1 := s.Energy()
	drift := math.Abs((k1 + p1 - e0) / e0)
	if drift > 0.01 {
		t.Fatalf("energy drift %g", drift)
	}
}

type forcerFunc func(*nbody.System) error

func (f forcerFunc) Forces(s *nbody.System) error { return f(s) }

func TestInteractionAndBuildMixes(t *testing.T) {
	im := InteractionMix()
	if im.Flops != nbody.FlopsPerInteraction {
		t.Fatalf("interaction mix flops %d", im.Flops)
	}
	if im.ByClass[0] != 0 && false {
		t.Fatal("unreachable")
	}
	bm := BuildMix()
	if bm.ByClass[3] == 0 && bm.ByClass[1] == 0 {
		t.Fatal("build mix empty")
	}
}

// TestDualParallelCostMatchesForces: ParallelCost returns exactly what
// ParallelForces returns — simulated time, Stats, imported sources and
// communication volume — at p ∈ {1, 2, 3, 8, 24} over three opening
// angles with and without quadrupoles, and leaves its system untouched.
func TestDualParallelCostMatchesForces(t *testing.T) {
	const n, seed = 3000, 2001
	cost := CostModel{SecondsPerInteraction: 200e-9, SecondsPerBuildSource: 300e-9}
	s := nbody.NewPlummer(n, 1, seed)
	for _, p := range []int{1, 2, 3, 8, 24} {
		for _, theta := range []float64{0.5, 0.7, 1.0} {
			for _, quad := range []bool{false, true} {
				cfg := ParallelConfig{Theta: theta, Quadrupole: quad, Eps: s.Eps, Cost: cost}
				run := func(step func(*mpi.World, *nbody.System, ParallelConfig) (*ParallelResult, error), sys *nbody.System) *ParallelResult {
					w, err := mpi.NewWorld(p, netsim.FastEthernet())
					if err != nil {
						t.Fatal(err)
					}
					res, err := step(w, sys, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := run(ParallelForces, nbody.NewPlummer(n, 1, seed))
				got := run(ParallelCost, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("p=%d θ=%g quad=%v: ParallelCost %+v, ParallelForces %+v", p, theta, quad, got, want)
				}
			}
		}
	}
	if !reflect.DeepEqual(s, nbody.NewPlummer(n, 1, seed)) {
		t.Fatal("ParallelCost wrote into its system")
	}
}

// TestDualRealTargetSelectionMatchesNil: the force phase's real-target
// selection gives ParallelCost results and ParallelForces accelerations
// bit-identical to a walk with a nil selection, at p = 1, 3, 8 and 24,
// on a Plummer sphere with every third particle massless. It makes as
// many MAC tests at p = 1, where no rank imports, and fewer at p >= 2,
// where the walk stops refining subtrees that hold only imports.
func TestDualRealTargetSelectionMatchesNil(t *testing.T) {
	defer func() { pruneImports = true }()
	steps := []struct {
		name string
		step func(*mpi.World, *nbody.System, ParallelConfig) (*ParallelResult, error)
	}{{"cost", ParallelCost}, {"forces", ParallelForces}}
	for _, p := range []int{1, 3, 8, 24} {
		for _, st := range steps {
			run := func(prune bool) (parallelRun, uint64) {
				pruneImports = prune
				s := masslessPlummer(6000, 2001, 3)
				mac0 := dualMAC.Value()
				r := runParallel(t, st.step, s, p, ParallelConfig{Theta: 0.7, Eps: s.Eps})
				return r, dualMAC.Value() - mac0
			}
			want, wantMAC := run(false)
			got, gotMAC := run(true)
			label := fmt.Sprintf("%s p=%d", st.name, p)
			requireSameRun(t, label, got, want)
			if p == 1 && gotMAC != wantMAC || p > 1 && gotMAC >= wantMAC {
				t.Fatalf("%s: %d MAC tests with the real-target selection, %d with a nil one", label, gotMAC, wantMAC)
			}
		}
	}
}
