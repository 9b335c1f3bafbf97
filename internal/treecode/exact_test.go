package treecode

import (
	"math"
	"testing"

	"repro/internal/nbody"
)

// sweepRecursive evaluates forces for every particle with the exact
// point walk, returning packed accelerations and stats.
func sweepRecursive(tr *Tree, s *nbody.System, theta float64) ([]float64, Stats) {
	var st Stats
	out := make([]float64, 3*s.N())
	for i := 0; i < s.N(); i++ {
		ax, ay, az := tr.ForceAt(s.X[i], s.Y[i], s.Z[i], i, theta, s.Eps, &st)
		out[3*i], out[3*i+1], out[3*i+2] = ax, ay, az
	}
	return out, st
}

func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// packAccels returns a system's accelerations packed as sweepRecursive
// packs them.
func packAccels(s *nbody.System) []float64 {
	out := make([]float64, 0, 3*s.N())
	for i := 0; i < s.N(); i++ {
		out = append(out, s.AX[i], s.AY[i], s.AZ[i])
	}
	return out
}

// TestListEngineBitIdentical is the golden equivalence grid of the
// Forcer's exact path (named for the retired list engine it first
// pinned): a Forcer on EngineRecursive must reproduce ForceAt over a
// fresh build bit for bit — and count the same interactions — across
// theta, eps, quadrupole and bucket sizes. Floats are compared by their
// bit patterns, so any reordering of float additions fails here.
func TestListEngineBitIdentical(t *testing.T) {
	for _, quad := range []bool{false, true} {
		for _, bucket := range []int{1, 8, 16} {
			for _, theta := range []float64{0.3, 0.7, 1.0} {
				for _, eps := range []float64{0, 0.05} {
					s := nbody.NewPlummer(2000, 1, 7)
					s.Eps = eps
					tr := buildFromSystem(t, s, BuildOptions{Bucket: bucket, Quadrupole: quad})
					ref, refSt := sweepRecursive(tr, s, theta)
					f := &Forcer{Theta: theta, Bucket: bucket, Quadrupole: quad, Engine: EngineRecursive, Workers: 2}
					if err := f.Forces(s); err != nil {
						t.Fatal(err)
					}
					got, gotSt := packAccels(s), f.LastStats
					if i := bitsEqual(ref, got); i >= 0 {
						t.Fatalf("quad=%v bucket=%d theta=%g eps=%g: component %d differs: %g vs %g",
							quad, bucket, theta, eps, i, ref[i], got[i])
					}
					if refSt != gotSt {
						t.Fatalf("quad=%v bucket=%d theta=%g eps=%g: stats differ: %+v vs %+v",
							quad, bucket, theta, eps, refSt, gotSt)
					}
					if refSt.PP == 0 || refSt.PC == 0 {
						t.Fatalf("degenerate sweep: %+v", refSt)
					}
				}
			}
		}
	}
}

// forcerAccels runs one Forces call and returns the acceleration
// arrays and the call's stats.
func forcerAccels(t *testing.T, f *Forcer, n int) ([]float64, Stats) {
	t.Helper()
	s := nbody.NewPlummer(n, 1, 99)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	return packAccels(s), f.LastStats
}

// TestForcerEnginesBitIdentical asserts both ways of asking the Forcer
// for exactness — EngineRecursive, and EngineAuto under an error budget
// below 1 — give the bits of the ForceAt point walk.
func TestForcerEnginesBitIdentical(t *testing.T) {
	const n = 3000
	s := nbody.NewPlummer(n, 1, 99)
	ref, refSt := sweepRecursive(buildFromSystem(t, s, BuildOptions{}), s, 0.7)
	for _, f := range []*Forcer{
		{Theta: 0.7, Engine: EngineRecursive, Workers: 1},
		{Theta: 0.7, Engine: EngineRecursive, Workers: 4},
		{Theta: 0.7, ErrorBudget: 0.5, Workers: 4},
	} {
		got, gotSt := forcerAccels(t, f, n)
		if i := bitsEqual(ref, got); i >= 0 {
			t.Fatalf("%v budget=%g workers=%d: component %d differs from ForceAt", f.Engine, f.ErrorBudget, f.Workers, i)
		}
		if refSt != gotSt {
			t.Fatalf("%v budget=%g workers=%d: stats differ: %+v vs %+v", f.Engine, f.ErrorBudget, f.Workers, refSt, gotSt)
		}
	}
}

// TestExactWorkersBitIdentical is the par-pool determinism contract for
// the exact engine: workers 1, 2 and 8 must produce bit-identical
// accelerations and identical Stats{PP,PC}. CI runs this under -race,
// so it also proves the per-chunk counters never share.
func TestExactWorkersBitIdentical(t *testing.T) {
	const n = 6000
	ref, refSt := forcerAccels(t, &Forcer{Theta: 0.7, Engine: EngineRecursive, Workers: 1}, n)
	for _, w := range []int{2, 8} {
		got, gotSt := forcerAccels(t, &Forcer{Theta: 0.7, Engine: EngineRecursive, Workers: w}, n)
		if i := bitsEqual(ref, got); i >= 0 {
			t.Fatalf("workers=%d: component %d differs from serial", w, i)
		}
		if refSt != gotSt {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", w, refSt, gotSt)
		}
	}
}

// rmsError returns the RMS acceleration error of f against direct
// summation over every particle.
func rmsError(s *nbody.System, acc []float64) float64 {
	n := s.N()
	var num, den float64
	for i := 0; i < n; i++ {
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
			f := s.M[j] * rinv * rinv * rinv
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		ex := acc[3*i] - ax
		ey := acc[3*i+1] - ay
		ez := acc[3*i+2] - az
		num += ex*ex + ey*ey + ez*ez
		den += ax*ax + ay*ay + az*az
	}
	return math.Sqrt(num / den)
}

// TestGroupWalkTelemetrySavings: the dual engine evaluates one shared
// list per target group, so a Forces call must record saved traversals
// in treecode.list.groupwalk.saved (every target beyond the first per
// group).
func TestGroupWalkTelemetrySavings(t *testing.T) {
	before := listGroupSaved.Value()
	f := &Forcer{Theta: 0.7, Engine: EngineDual, Workers: 1}
	s := nbody.NewPlummer(2000, 1, 3)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	saved := listGroupSaved.Value() - before
	if saved == 0 {
		t.Fatal("dual walk saved no traversals")
	}
	if saved >= uint64(s.N()) {
		t.Fatalf("savings %d exceed particle count %d", saved, s.N())
	}
}

// TestArenaReuseTelemetry: a second dual Forces call on the same Forcer
// must reuse its per-worker arenas and say so in the counters.
func TestArenaReuseTelemetry(t *testing.T) {
	f := &Forcer{Theta: 0.7, Workers: 2}
	s := nbody.NewPlummer(1500, 1, 21)
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	before := listArenaReuse.Value()
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	if reused := listArenaReuse.Value() - before; reused < 2 {
		t.Fatalf("second Forces call reused %d arenas, want >= 2", reused)
	}
}

// TestParseEngine covers the flag parser and the default: the retired
// "list" spelling and the removed group engine's spellings are errors,
// not silently another engine.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{
		{"", EngineAuto}, {"auto", EngineAuto},
		{"recursive", EngineRecursive},
		{"dual", EngineDual},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, bad := range []string{"turbo", "list", "group", "groupwalk"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Fatalf("ParseEngine accepted %q", bad)
		}
	}
	for e, want := range map[Engine]string{
		EngineAuto: "auto", EngineRecursive: "recursive", EngineDual: "dual",
	} {
		if e.String() != want {
			t.Fatalf("engine %d spelled %q, want %q", int(e), e.String(), want)
		}
	}
}

// TestResolveEngine pins the error-budget resolution: auto defaults to
// the dual engine (budget 1 = "no worse than the reference"), budgets
// below 1 demand bit-exactness, and explicit engines always win.
func TestResolveEngine(t *testing.T) {
	for _, tc := range []struct {
		e      Engine
		budget float64
		want   Engine
	}{
		{EngineAuto, 0, EngineDual},
		{EngineAuto, 1, EngineDual},
		{EngineAuto, 2.5, EngineDual},
		{EngineAuto, 0.5, EngineRecursive},
		{EngineRecursive, 0, EngineRecursive},
		{EngineRecursive, 5, EngineRecursive},
		{EngineDual, 0.1, EngineDual},
	} {
		if got := ResolveEngine(tc.e, tc.budget); got != tc.want {
			t.Fatalf("ResolveEngine(%v, %g) = %v, want %v", tc.e, tc.budget, got, tc.want)
		}
	}
}

// TestMinDist2MatchesMinDist pins the squared-distance helper to its
// sqrt counterpart.
func TestMinDist2MatchesMinDist(t *testing.T) {
	b := Box{CX: 1, CY: -2, CZ: 0.5, Half: 0.25}
	pts := [][3]float64{{1, -2, 0.5}, {2, -2, 0.5}, {0, 0, 0}, {1.25, -1.75, 0.75}, {-3, 4, 9}}
	for _, p := range pts {
		d := b.MinDist(p[0], p[1], p[2])
		d2 := b.MinDist2(p[0], p[1], p[2])
		if math.Abs(d*d-d2) > 1e-12*(1+d2) {
			t.Fatalf("MinDist²=%g vs MinDist2=%g at %v", d*d, d2, p)
		}
	}
	if d2 := boxToBoxDist2(b, Box{CX: 1, CY: -2, CZ: 0.5, Half: 1}); d2 != 0 {
		t.Fatalf("overlapping boxes have dist2 %g", d2)
	}
	d := boxToBoxDist(b, Box{CX: 5, CY: -2, CZ: 0.5, Half: 1})
	if math.Abs(d-2.75) > 1e-12 {
		t.Fatalf("boxToBoxDist = %g, want 2.75", d)
	}
}
