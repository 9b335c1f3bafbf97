package treecode

import (
	"math"
	"testing"

	"repro/internal/nbody"
)

// sweepDual evaluates forces for every particle with serial dual-tree
// traversals over the standard task decomposition.
func sweepDual(tr *Tree, s *nbody.System, theta float64) ([]float64, Stats) {
	var st Stats
	ar := NewWalkArena()
	out := make([]float64, 3*s.N())
	filled := 0
	for _, ti := range tr.AppendGroups(nil, DualTaskSize) {
		tr.DualForceWalk(ti, theta, s.Eps, nil, ar, &st)
		for k := 0; k < ar.NumTargets(); k++ {
			i, ax, ay, az := ar.Target(k)
			out[3*i], out[3*i+1], out[3*i+2] = ax, ay, az
			filled++
		}
	}
	if filled != s.N() {
		panic("dual sweep did not cover every particle")
	}
	return out, st
}

// TestDualEngineAccuracyBounded: every cell the dual traversal accepts
// — whether hoisted at an ancestor target or resolved at the group —
// passes the conservative box MAC for the group's own box, which
// implies the per-particle MAC for every target in it. So the dual
// engine's RMS error against direct summation is bounded by the
// recursive walk's, and it does at least as many PP interactions — at
// every leaf bucket size.
func TestDualEngineAccuracyBounded(t *testing.T) {
	const n = 4000
	s := nbody.NewPlummer(n, 1, 5)
	for _, bucket := range []int{1, 8, 16} {
		tr := buildFromSystem(t, s, BuildOptions{Bucket: bucket})

		rec, recSt := sweepRecursive(tr, s, 0.7)
		dual, dualSt := sweepDual(tr, s, 0.7)

		recRMS := rmsError(s, rec)
		dualRMS := rmsError(s, dual)
		t.Logf("theta=0.7 n=%d bucket=%d: recursive RMS=%.3e (%d interactions), dual RMS=%.3e (%d interactions)",
			n, bucket, recRMS, recSt.Interactions(), dualRMS, dualSt.Interactions())
		if dualRMS > recRMS*1.05+1e-12 {
			t.Fatalf("bucket=%d: dual engine less accurate than per-particle walk: RMS %.3e vs %.3e", bucket, dualRMS, recRMS)
		}
		if dualSt.PP < recSt.PP {
			t.Fatalf("bucket=%d: dual engine did fewer PP interactions than per-particle: %d vs %d", bucket, dualSt.PP, recSt.PP)
		}
	}
}

// TestDualEngineNoLessAccurateAtScale holds the same bound with no
// slack at n=20000, the force-engine benchmark size: the dual engine's
// per-particle relative RMS error against direct summation must not
// exceed the recursive walk's.
func TestDualEngineNoLessAccurateAtScale(t *testing.T) {
	const n = 20000
	s := nbody.NewPlummer(n, 1, 2001)
	tr := buildFromSystem(t, s, BuildOptions{})
	ref := nbody.NewPlummer(n, 1, 2001)
	ref.DirectForces()
	relRMS := func(acc []float64) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			dx := acc[3*i] - ref.AX[i]
			dy := acc[3*i+1] - ref.AY[i]
			dz := acc[3*i+2] - ref.AZ[i]
			sum += (dx*dx + dy*dy + dz*dz) / (ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i])
		}
		return math.Sqrt(sum / n)
	}
	rec, _ := sweepRecursive(tr, s, 0.7)
	dual, _ := sweepDual(tr, s, 0.7)
	recRMS, dualRMS := relRMS(rec), relRMS(dual)
	t.Logf("n=%d: recursive RMS=%.4e, dual RMS=%.4e", n, recRMS, dualRMS)
	if dualRMS > recRMS {
		t.Fatalf("dual engine less accurate than the recursive walk: RMS %.4e vs %.4e", dualRMS, recRMS)
	}
}

// TestForcerDefaultResolvesDual: a zero-valued Forcer runs the
// dual-tree walk — dual tasks are counted, and its forces are not the
// exact walk's bits — and is no less accurate than the exact
// per-particle walk, ForceAt, over the same tree.
func TestForcerDefaultResolvesDual(t *testing.T) {
	const n = 3000
	s := nbody.NewPlummer(n, 1, 99)
	exact, exactSt := sweepRecursive(buildFromSystem(t, s, BuildOptions{}), s, 0.7)
	before := dualTasks.Value()
	def, defSt := forcerAccels(t, &Forcer{Theta: 0.7, Workers: 2}, n)
	if dualTasks.Value() == before {
		t.Fatal("default Forcer ran no dual-tree tasks")
	}
	if bitsEqual(def, exact) < 0 || defSt == exactSt {
		t.Fatal("default Forcer reproduced the exact walk: it did not run the dual engine")
	}
	if defRMS, exactRMS := rmsError(s, def), rmsError(s, exact); defRMS > exactRMS*1.05+1e-12 {
		t.Fatalf("default Forcer RMS %.3e exceeds the exact walk's %.3e", defRMS, exactRMS)
	}
}

// TestDualWorkersBitIdentical: dual tasks partition the particles and
// per-worker interaction counts sum exactly, so accelerations and
// stats must not depend on the worker width (at DefaultGroupSize, the
// only group granularity).
func TestDualWorkersBitIdentical(t *testing.T) {
	const n = 6000
	ref, refSt := forcerAccels(t, &Forcer{Theta: 0.7, Workers: 1}, n)
	for _, w := range []int{2, 8} {
		got, gotSt := forcerAccels(t, &Forcer{Theta: 0.7, Workers: w}, n)
		if i := bitsEqual(ref, got); i >= 0 {
			t.Fatalf("workers=%d: component %d differs from serial", w, i)
		}
		if refSt != gotSt {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", w, refSt, gotSt)
		}
	}
}

// TestParallelForcesBitIdentical asserts the treecode force loop returns
// bit-identical acceleration arrays at worker counts 1, 2 and 8, and the
// same interaction statistics. Every acceleration starts at a sentinel
// and must be written: a system whose masses are all zero gets the
// zero rows DirectForces gives it, and no interactions.
func TestParallelForcesBitIdentical(t *testing.T) {
	const sentinel = 7
	for _, tc := range []struct {
		name     string
		n        int
		seed     uint64
		zeroMass bool
	}{{"plummer", 6000, 2024, false}, {"zero-mass", 200, 3, true}} {
		system := func() *nbody.System {
			s := nbody.NewPlummer(tc.n, 1, tc.seed)
			for i := range s.M {
				if tc.zeroMass {
					s.M[i] = 0
				}
				s.AX[i], s.AY[i], s.AZ[i] = sentinel, sentinel, sentinel
			}
			return s
		}
		run := func(w int) (*nbody.System, Stats) {
			s := system()
			f := &Forcer{Theta: 0.7, Workers: w}
			if err := f.Forces(s); err != nil {
				t.Fatal(err)
			}
			return s, f.LastStats
		}
		ref, refStats := run(1)
		if tc.zeroMass {
			direct := system()
			direct.DirectForces()
			if i := bitsEqual(packAccels(ref), packAccels(direct)); i >= 0 {
				t.Fatalf("%s: component %d is %g, DirectForces gives %g", tc.name, i, packAccels(ref)[i], packAccels(direct)[i])
			}
			if refStats != (Stats{}) {
				t.Fatalf("%s: stats %+v, want none", tc.name, refStats)
			}
		}
		for i := 0; i < ref.N(); i++ {
			if ref.AX[i] == sentinel || ref.AY[i] == sentinel || ref.AZ[i] == sentinel {
				t.Fatalf("%s: acceleration of particle %d was not written", tc.name, i)
			}
		}
		for _, w := range []int{2, 8} {
			got, gotStats := run(w)
			if gotStats != refStats {
				t.Fatalf("%s: workers=%d stats %+v differ from serial %+v", tc.name, w, gotStats, refStats)
			}
			for i := 0; i < ref.N(); i++ {
				if got.AX[i] != ref.AX[i] || got.AY[i] != ref.AY[i] || got.AZ[i] != ref.AZ[i] {
					t.Fatalf("%s: workers=%d: acceleration of particle %d differs from serial", tc.name, w, i)
				}
			}
		}
	}
}

// TestSofteningAgreesWithRecursive is the regression for the hoisted
// softening helper: at eps = 0 and eps > 0 alike, the dual engine must
// stay RMS-bounded by the recursive walk. A wrong eps² in either engine
// blows the comparison up immediately.
func TestSofteningAgreesWithRecursive(t *testing.T) {
	const n = 2000
	base := nbody.NewPlummer(n, 1, 17)
	tr := buildFromSystem(t, base, BuildOptions{Quadrupole: true})
	for _, eps := range []float64{0, 0.05} {
		s := *base
		s.Eps = eps
		rec, _ := sweepRecursive(tr, &s, 0.7)
		recRMS := rmsError(&s, rec)
		dual, _ := sweepDual(tr, &s, 0.7)
		if rms := rmsError(&s, dual); rms > recRMS*1.05+1e-12 {
			t.Fatalf("eps=%g: dual engine RMS %.3e exceeds recursive %.3e", eps, rms, recRMS)
		}
	}
}

// TestForcesActiveDual: the dual engine under a mask shrinks each
// group's target box to its active members — a *more* conservative
// MAC — so active particles must stay at least as accurate as the
// recursive walk, inactive ones untouched, and subtrees with no
// active member must be pruned (strictly less work than a full call).
func TestForcesActiveDual(t *testing.T) {
	const n = 2000
	s := nbody.NewPlummer(n, 1, 31)
	f := &Forcer{Theta: 0.7, Workers: 4}
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	fullStats := f.LastStats

	masked := nbody.NewPlummer(n, 1, 31)
	active := make([]bool, n)
	const sentinel = -987.25
	for i := range active {
		active[i] = i%4 == 1
		masked.AX[i], masked.AY[i], masked.AZ[i] = sentinel, sentinel, sentinel
	}
	if err := f.ForcesActive(masked, active); err != nil {
		t.Fatal(err)
	}
	if f.LastStats.Interactions() >= fullStats.Interactions() {
		t.Fatalf("masked call did no less work: %d vs %d interactions",
			f.LastStats.Interactions(), fullStats.Interactions())
	}
	// Accuracy of the active subset against direct summation, compared
	// to the recursive walk on the same subset.
	tr := buildFromSystem(t, s, BuildOptions{})
	rec, _ := sweepRecursive(tr, s, 0.7)
	var dualNum, recNum, den float64
	for i := 0; i < n; i++ {
		if !active[i] {
			if masked.AX[i] != sentinel {
				t.Fatalf("inactive particle %d was overwritten", i)
			}
			continue
		}
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := s.X[j] - s.X[i]
			dy := s.Y[j] - s.Y[i]
			dz := s.Z[j] - s.Z[i]
			r2 := dx*dx + dy*dy + dz*dz + s.Eps*s.Eps
			rinv := 1 / math.Sqrt(r2)
			fm := s.M[j] * rinv * rinv * rinv
			ax += fm * dx
			ay += fm * dy
			az += fm * dz
		}
		ex, ey, ez := masked.AX[i]-ax, masked.AY[i]-ay, masked.AZ[i]-az
		dualNum += ex*ex + ey*ey + ez*ez
		ex, ey, ez = rec[3*i]-ax, rec[3*i+1]-ay, rec[3*i+2]-az
		recNum += ex*ex + ey*ey + ez*ez
		den += ax*ax + ay*ay + az*az
	}
	dualRMS := math.Sqrt(dualNum / den)
	recRMS := math.Sqrt(recNum / den)
	t.Logf("active-subset RMS: dual=%.3e recursive=%.3e", dualRMS, recRMS)
	if dualRMS > recRMS*1.05+1e-12 {
		t.Fatalf("masked dual RMS %.3e exceeds recursive %.3e", dualRMS, recRMS)
	}
}

// TestDualTelemetry: a dual Forces call must record tasks, MAC tests,
// evaluated groups, and — the point of the engine — cells hoisted
// above group level.
func TestDualTelemetry(t *testing.T) {
	tasks0, mac0 := dualTasks.Value(), dualMAC.Value()
	hoist0, groups0 := dualHoisted.Value(), dualGroups.Value()
	f := &Forcer{Theta: 0.7, Workers: 2}
	s := nbody.NewPlummer(4000, 1, 3)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	tasks := dualTasks.Value() - tasks0
	if tasks == 0 || tasks > uint64(s.N()) {
		t.Fatalf("implausible dual task count %d", tasks)
	}
	if mac := dualMAC.Value() - mac0; mac == 0 {
		t.Fatal("no MAC tests recorded")
	}
	if hoisted := dualHoisted.Value() - hoist0; hoisted == 0 {
		t.Fatal("no cells hoisted above group level — the dual engine is not amortizing")
	}
	groups := dualGroups.Value() - groups0
	if groups < tasks {
		t.Fatalf("fewer groups %d than tasks %d", groups, tasks)
	}
}

// pendingTelemetry is an arena's unflushed walk telemetry, in field
// order: walks, cells, parts, saved, tasks, MACs, hoisted, groups.
func pendingTelemetry(ar *WalkArena) [8]uint64 {
	return [8]uint64{ar.pendWalks, ar.pendCells, ar.pendParts, ar.pendSaved,
		ar.pendDualTasks, ar.pendDualMAC, ar.pendDualHoisted, ar.pendDualGroups}
}

// TestDualCountMatchesEval: a counting walk (eval false, what
// ParallelCost runs) adds exactly the Stats and walk telemetry an
// evaluating walk does, task by task, and writes no target rows. It
// covers full, masked and empty selections, monopole and quadrupole
// trees, θ ∈ {0.5, 0.7, 1.0}, a LET-shaped tree — one domain's
// particles plus the sources another domain exports to it, imported as
// pseudo-particles (Index < 0) that are sources but never targets —
// and a tree whose particles share indices three by three.
func TestDualCountMatchesEval(t *testing.T) {
	s := nbody.NewPlummer(3000, 1, 77)
	parts, err := Decompose(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	domain := func(part []int) []Source {
		out := make([]Source, len(part))
		for i, pi := range part {
			out[i] = Source{X: s.X[pi], Y: s.Y[pi], Z: s.Z[pi], M: s.M[pi], Index: pi}
		}
		return out
	}
	mine, theirs := domain(parts[0]), domain(parts[1])
	mineTree, err := Build(mine, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	theirTree, err := Build(theirs, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	export := theirTree.letExport(nil, mineTree.Root, 0.7)
	wire := make([]float64, 4*len(export))
	encodeSourcesInto(export, wire)
	imported := make([]Source, len(export))
	if err := decodeSourcesInto(imported, wire); err != nil {
		t.Fatal(err)
	}
	let := append(append([]Source(nil), mine...), imported...)

	// Sources sharing a particle index: the kernels skip every list
	// entry equal to a target's index, so the count must too.
	shared := SourcesFromSystem(s)
	for i := range shared {
		shared[i].Index = i / 3
	}

	masked := make([]bool, s.N())
	for i := range masked {
		masked[i] = i%3 == 1
	}
	for _, tc := range []struct {
		name string
		srcs []Source
	}{
		{"system", SourcesFromSystem(s)},
		{"let", let},
		{"shared-index", shared},
	} {
		for _, quad := range []bool{false, true} {
			tr, err := Build(tc.srcs, BuildOptions{Quadrupole: quad})
			if err != nil {
				t.Fatal(err)
			}
			for _, theta := range []float64{0.5, 0.7, 1.0} {
				for _, mask := range []struct {
					name   string
					active []bool
				}{{"all", nil}, {"masked", masked}, {"none", make([]bool, s.N())}} {
					var sel Selection
					sp := tr.Select(mask.active, &sel)
					evalAr, countAr := NewWalkArena(), NewWalkArena()
					var evalTotal, countTotal Stats
					for _, ti := range tr.AppendGroups(nil, DualTaskSize) {
						var evalSt, countSt Stats
						tr.DualForceWalk(ti, theta, s.Eps, sp, evalAr, &evalSt)
						tr.dualWalk(ti, theta, s.Eps, sp, countAr, &countSt, false)
						if countSt != evalSt {
							t.Fatalf("%s quad=%v θ=%g %s task %d: count %+v, eval %+v",
								tc.name, quad, theta, mask.name, ti, countSt, evalSt)
						}
						if countAr.NumTargets() != 0 {
							t.Fatalf("%s: counting walk wrote %d target rows", tc.name, countAr.NumTargets())
						}
						evalTotal.PP += evalSt.PP
						evalTotal.PC += evalSt.PC
						countTotal.PP += countSt.PP
						countTotal.PC += countSt.PC
					}
					if got, want := pendingTelemetry(countAr), pendingTelemetry(evalAr); got != want {
						t.Fatalf("%s quad=%v θ=%g %s: count telemetry %v, eval %v",
							tc.name, quad, theta, mask.name, got, want)
					}
					if mask.name == "none" && evalTotal.Interactions() != 0 {
						t.Fatalf("%s: empty selection did %d interactions", tc.name, evalTotal.Interactions())
					}
					if mask.name != "none" && countTotal.PP == 0 {
						t.Fatalf("%s quad=%v θ=%g %s: no PP interactions counted", tc.name, quad, theta, mask.name)
					}
				}
			}
		}
	}
}
