// Host-timing guards: each compares two configurations of the same
// work on the same machine, as a ratio of medians over interleaved
// samples, so a slow or busy host slows both sides alike. Exact
// contracts (bit-identity, allocation counts, simulated cycles) live
// in the packages that own them; these tests hold only the speed
// claims that justify keeping an optimization.
package repro_test

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/designopt"
	"repro/internal/nbody"
	"repro/internal/par"
	"repro/internal/treecode"
)

// guardSamples is how many samples each side of a guard takes.
const guardSamples = 5

// medianTimes runs every arm guardSamples times, interleaved, and
// returns each arm's median wall time. The arm that goes first rotates
// each round, so a drift in host speed falls on every arm alike.
func medianTimes(t *testing.T, arms ...func()) []time.Duration {
	t.Helper()
	if raceEnabled {
		t.Skip("host-timing guard: timings under -race compare nothing")
	}
	samples := make([][]time.Duration, len(arms))
	for r := 0; r < guardSamples; r++ {
		for k := range arms {
			a := (r + k) % len(arms)
			runtime.GC()
			t0 := time.Now()
			arms[a]()
			samples[a] = append(samples[a], time.Since(t0))
		}
	}
	med := make([]time.Duration, len(arms))
	for a, s := range samples {
		slices.Sort(s)
		med[a] = s[len(s)/2]
	}
	return med
}

// pairedRounds is how many rounds medianPairedRatio takes; each runs
// both arms twice.
const pairedRounds = 9

// medianPairedRatio times got and twin in pairedRounds rounds and returns
// the median over rounds of got/twin. A round runs the arms back to back
// in ABBA order (BAAB in odd rounds), so a change in host load during the
// round (other packages' tests starting or finishing beside this one)
// falls on both arms of its ratio rather than on one arm's median.
func medianPairedRatio(t *testing.T, got, twin func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("host-timing guard: timings under -race compare nothing")
	}
	timed := func(f func()) time.Duration {
		runtime.GC()
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	ratios := make([]float64, pairedRounds)
	for r := range ratios {
		var g, w time.Duration
		if r%2 == 0 {
			g += timed(got)
			w += timed(twin)
			w += timed(twin)
			g += timed(got)
		} else {
			w += timed(twin)
			g += timed(got)
			g += timed(got)
			w += timed(twin)
		}
		ratios[r] = float64(g) / float64(w)
	}
	slices.Sort(ratios)
	t.Logf("per-round ratios %.2f", ratios)
	return ratios[len(ratios)/2]
}

// noSlower fails when got's median exceeds 1.10x its twin's.
func noSlower(t *testing.T, what string, got, twin time.Duration) {
	t.Helper()
	t.Logf("%s: %v vs %v", what, got, twin)
	noSlowerRatio(t, what, float64(got)/float64(twin))
}

// noSlowerRatio fails when ratio, a time over its twin's, exceeds 1.10.
func noSlowerRatio(t *testing.T, what string, ratio float64) {
	t.Helper()
	t.Logf("%s: %.2fx its twin", what, ratio)
	if ratio > 1.10 {
		t.Errorf("%s is >10%% slower than its twin (%.2fx)", what, ratio)
	}
}

// atLeast fails when slow/fast, the speedup, falls under want.
func atLeast(t *testing.T, what string, slow, fast time.Duration, want float64) {
	t.Helper()
	ratio := float64(slow) / float64(fast)
	t.Logf("%s: %v vs %v (%.2fx)", what, fast, slow, ratio)
	if ratio < want {
		t.Errorf("%s only %.2fx (want ≥%gx): %v vs %v", what, ratio, want, fast, slow)
	}
}

// freshForcer builds a new Forcer, and so a tree in new storage, on
// every call: the baseline a reused Forcer's scratch is measured
// against.
type freshForcer struct{ workers int }

func (f freshForcer) Forces(s *nbody.System) error { return f.ForcesActive(s, nil) }

func (f freshForcer) ForcesActive(s *nbody.System, active []bool) error {
	return (&treecode.Forcer{Theta: 0.7, Workers: f.workers}).ForcesActive(s, active)
}

// exactForcer is the exact per-particle baseline: one Tree.ForceAt
// walk per particle over a tree from Build, in 512-particle chunks on
// a workers-wide pool.
type exactForcer struct {
	workers int
	srcs    []treecode.Source
}

func (f *exactForcer) Forces(s *nbody.System) error {
	f.srcs = treecode.AppendSources(f.srcs[:0], s)
	tr, err := treecode.Build(f.srcs, treecode.BuildOptions{Workers: f.workers})
	if err != nil {
		return err
	}
	par.New(f.workers).ForChunks(s.N(), 512, func(_, lo, hi int) {
		var st treecode.Stats
		for i := lo; i < hi; i++ {
			ax, ay, az := tr.ForceAt(s.X[i], s.Y[i], s.Z[i], i, 0.7, s.Eps, &st)
			s.AX[i], s.AY[i], s.AZ[i] = s.G*ax, s.G*ay, s.G*az
		}
	})
	return nil
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// driftSystem advances positions ballistically by one leapfrog-sized
// dt: enough motion to churn Morton keys between tree builds.
func driftSystem(s *nbody.System) {
	const dt = 0.005
	for i := 0; i < s.N(); i++ {
		s.X[i] += dt * s.VX[i]
		s.Y[i] += dt * s.VY[i]
		s.Z[i] += dt * s.VZ[i]
	}
}

// TestGuardDualForceThroughput: the dual engine, which amortizes each
// acceptance decision over a whole target subtree, must sweep n=20000
// particles single-threaded at least 1.5x faster than the recursive
// walk.
func TestGuardDualForceThroughput(t *testing.T) {
	recursive, dual := forceSweeps(t, 20000)
	med := medianTimes(t, recursive, dual)
	atLeast(t, "dual over recursive", med[0], med[1], 1.5)
}

// TestGuardBlockSteps holds the hierarchical block integrator's two
// speed claims on an n=20000 Plummer sphere with eps=0.001, where close
// encounters reach the fine rungs while the halo stays coarse:
//   - dual engine plus block steps deliver at least 3x the exact
//     ForceAt walk per unit of simulated time. The exact baseline steps
//     every particle at the finest occupied dt, so it pays one
//     recursive-walk force step per tick, 2^rung ticks per base step;
//   - a Forcer building into its reused scratch is no more than 10%
//     slower than a new Forcer for every one of the hierarchy's force
//     calls.
func TestGuardBlockSteps(t *testing.T) {
	const n = 20000
	system := func() *nbody.System {
		s := nbody.NewPlummer(n, 1, 2001)
		s.Eps = 0.001
		return s
	}
	g := runtime.GOMAXPROCS(0)
	cfg := nbody.BlockConfig{DT: 0.02, MaxRung: 6}
	exactSys, sysR, sysF := system(), system(), system()
	exact := &exactForcer{workers: g}
	reused := &treecode.Forcer{Theta: 0.7, Workers: g}
	var bsR, bsF nbody.BlockStepper
	med := medianTimes(t,
		func() { must(t, exact.Forces(exactSys)) },
		func() { must(t, bsR.Run(sysR, reused, cfg, 1)) },
		func() { must(t, bsF.Run(sysF, freshForcer{workers: g}, cfg, 1)) },
	)
	ticks := math.Exp2(float64(bsR.Stats.MaxRungUsed))
	atLeast(t, "dual+block over exact per base step", time.Duration(float64(med[0])*ticks), med[1], 3)
	noSlower(t, "reused-scratch block steps", med[1], med[2])
}

// TestGuardReuseStep: a force step on a Forcer that builds into its
// reused scratch must be no more than 10% slower than one on a new
// Forcer that builds into new storage (n=20000, all workers).
func TestGuardReuseStep(t *testing.T) {
	const n, stepsPerSample = 20000, 3
	g := runtime.GOMAXPROCS(0)
	msys, fsys := nbody.NewPlummer(n, 1, 2001), nbody.NewPlummer(n, 1, 2001)
	f := &treecode.Forcer{Theta: 0.7, Workers: g}
	must(t, f.Forces(msys)) // the first call builds the tree
	steps := func(s *nbody.System, f nbody.Forcer) func() {
		return func() {
			for i := 0; i < stepsPerSample; i++ {
				driftSystem(s)
				must(t, f.Forces(s))
			}
		}
	}
	med := medianTimes(t, steps(msys, f), steps(fsys, freshForcer{workers: g}))
	noSlower(t, "reused-scratch force step", med[0], med[1])
}

// TestGuardHostParallel: the worker pool must not make the n=30000
// tree build or treecode force step slower than serial, judged by the
// median of per-round paired ratios (medianPairedRatio).
func TestGuardHostParallel(t *testing.T) {
	g := runtime.GOMAXPROCS(0)
	if g == 1 {
		t.Skip("one CPU: no parallel path to compare")
	}
	const n = 30000
	serialBuild, serialForces := hostParallelOps(n, 1)
	parBuild, parForces := hostParallelOps(n, g)
	arm := func(op func() error) func() { return func() { must(t, op()) } }
	noSlowerRatio(t, "parallel tree build", medianPairedRatio(t, arm(parBuild), arm(serialBuild)))
	noSlowerRatio(t, "parallel force step", medianPairedRatio(t, arm(parForces), arm(serialForces)))
}

// TestGuardConcurrentSweep: running the p=1..8 NAS rank sweep's worlds
// concurrently at the default pool width must not be slower than
// running them one by one on a 1-wide pool, judged by the median of
// per-round paired ratios (medianPairedRatio).
func TestGuardConcurrentSweep(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("one CPU: no parallel path to compare")
	}
	cfg := nasSweepConfig()
	sweep := func(width int) func() {
		return func() {
			par.SetWorkers(width)
			defer par.SetWorkers(0)
			_, _, err := core.NewRun().NASSweep(cfg)
			must(t, err)
		}
	}
	noSlowerRatio(t, "concurrent NAS sweep", medianPairedRatio(t, sweep(0), sweep(1)))
}

// TestGuardDesignSweep: the design-space search must score at least
// 100k candidates/s on the default grid, network solves included.
func TestGuardDesignSweep(t *testing.T) {
	def := designopt.DefaultGrid()
	res, err := designopt.Optimize(def)
	must(t, err)
	med := medianTimes(t, func() {
		_, err := designopt.Optimize(def)
		must(t, err)
	})
	rate := float64(res.Candidates) / med[0].Seconds()
	t.Logf("default grid: %d candidates in %v (%.0f/s)", res.Candidates, med[0], rate)
	if rate < 100_000 {
		t.Errorf("design sweep at %.0f candidates/s, want ≥100000", rate)
	}
}
