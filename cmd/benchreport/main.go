// Command benchreport runs the repository's host-performance benchmarks
// in-process (via testing.Benchmark) and emits a machine-readable report:
// host ns/op plus the simulated-machine metrics (cycles, Mflops) for the
// gravity microkernel, a treecode force step, the MPI substrate's
// allreduce hot path (pooled against the unpooled baseline), the
// parallel rank-sweep harness (serial against concurrent against the
// event scheduler), the large-p event core (a p=4096 EP world against
// the goroutine scheduler's extrapolated footprint) and the persistent
// tree maintainer (incremental re-sort + octant patching against a
// fresh build every step).
//
//	benchreport -out BENCH_pr10.json           # write the report
//	benchreport -guard                         # fail on in-run regressions
//	benchreport -compare old.json              # fail on >10% ns/op slowdown
//
// The report format lives in internal/benchfmt; cmd/gridload merges the
// experiment gateway's load-test entries into the same file.
//
// The -guard checks are machine-independent where possible: simulated
// cycle counts and virtual makespans are deterministic, so "gears must
// not slow the simulated machine down", "pooling must cut allreduce
// allocations at least 5x", "the concurrent and event sweeps must
// simulate the exact same cluster" and "the event core must run p=4096
// with ≥10x fewer goroutines than the goroutine path would take" are
// exact; host-side checks (parallel paths must not run slower than
// serial) carry a 10% tolerance, benchstat-style.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/designopt"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/netsim"
	"repro/internal/treecode"
)

// Entry and Report are the shared benchfmt types; the aliases keep the
// benchmark constructors below readable.
type (
	Entry  = benchfmt.Entry
	Report = benchfmt.Report
)

// slowdownTolerance is the benchstat-style regression threshold: a
// guarded pair fails when the measured side is more than 10% slower.
const slowdownTolerance = 1.10

func main() {
	out := flag.String("out", "", "write the report as JSON to this `path`")
	guard := flag.Bool("guard", false, "fail on in-run regressions (gears must not raise simulated cycles; parallel must not run >10% slower than serial)")
	compare := flag.String("compare", "", "compare against a previous report at this `path`; fail on >10% host slowdown of guarded benchmarks")
	flag.Parse()

	rep := Report{
		Schema:     benchfmt.Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	rep.Results = append(rep.Results, gravMicroEntries()...)
	rep.Results = append(rep.Results, treecodeStepEntry())
	rep.Results = append(rep.Results, treecodeStepExactEntry())
	rep.Results = append(rep.Results, treecodeReuseEntries()...)
	rep.Results = append(rep.Results, forceEngineEntries()...)
	rep.Results = append(rep.Results, blockStepEntries()...)
	rep.Results = append(rep.Results, hostParallelEntries()...)
	rep.Results = append(rep.Results, mpiEntries()...)
	rep.Results = append(rep.Results, largePEntries()...)
	rep.Results = append(rep.Results, sweepEntries()...)
	rep.Results = append(rep.Results, designoptEntries()...)

	for _, e := range rep.Results {
		fmt.Printf("%-44s %14.0f ns/op  %d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		for _, k := range []string{"sim_cycles", "sim_mflops", "sim_seconds", "rms_error", "energy_drift", "max_rung_used"} {
			if v, ok := e.Metrics[k]; ok {
				fmt.Printf("  %s=%.6g", k, v)
			}
		}
		fmt.Println()
	}

	if *out != "" {
		check(rep.Write(*out))
	}
	if *guard {
		check(guardReport(&rep))
		fmt.Println("guard: all regression checks passed")
	}
	if *compare != "" {
		check(compareReports(*compare, &rep))
		fmt.Printf("compare: no hostparallel/mpi/serve/designopt/treecode-reuse benchmark slowed down >%.0f%% vs %s\n",
			(slowdownTolerance-1)*100, *compare)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// gravMicroEntries benchmarks the Table 1 gravity microkernel on the
// simulated TM5600, single-gear and tiered.
func gravMicroEntries() []Entry {
	var out []Entry
	for _, variant := range []kernels.GravVariant{kernels.GravMath, kernels.GravKarp} {
		for _, gears := range []bool{false, true} {
			c := cpu.NewTM5600()
			c.Gears = gears
			g := kernels.DefaultGravMicro(variant)
			var cycles, mflops float64
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					prog, st, err := g.Build()
					check2(b, err)
					res, err := c.RunKernel(prog, st)
					check2(b, err)
					cycles = res.Cycles
					mflops = res.Mflops()
				}
			})
			out = append(out, Entry{
				Name:        fmt.Sprintf("gravmicro/%s/gears=%t", variant, gears),
				NsPerOp:     float64(r.NsPerOp()),
				AllocsPerOp: r.AllocsPerOp(),
				Metrics: map[string]float64{
					"sim_cycles": cycles,
					"sim_mflops": mflops,
				},
			})
		}
	}
	return out
}

// treecodeStepEntry benchmarks one full treecode force step on the host
// and attaches the simulated single-blade TM5600 rate for the same step.
func treecodeStepEntry() Entry {
	const n = 20000
	sys := nbody.NewPlummer(n, 1, 2001)
	f := &treecode.Forcer{Theta: 0.7, Workers: runtime.GOMAXPROCS(0), Reuse: treecode.ReuseOff}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check2(b, f.Forces(sys))
		}
	})
	e := Entry{
		Name:        fmt.Sprintf("treecode/step/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     map[string]float64{},
	}
	// Simulated side: the same step costed on one TM5600 blade.
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateTree)
	check(err)
	cm := treecode.CostModel{
		SecondsPerInteraction: costs.Seconds(treecode.InteractionMix()),
		SecondsPerBuildSource: costs.Seconds(treecode.BuildMix()),
	}
	w, err := mpi.NewWorld(1, netsim.FastEthernet())
	check(err)
	res, err := treecode.ParallelForces(w, nbody.NewPlummer(n, 1, 2001), treecode.ParallelConfig{
		Theta: 0.7, Eps: sys.Eps, Cost: cm,
	})
	check(err)
	if res.SimTime > 0 {
		e.Metrics["sim_seconds"] = res.SimTime
		e.Metrics["sim_mflops"] = float64(res.Stats.Flops()) / res.SimTime / 1e6
	}
	return e
}

// treecodeStepExactEntry benchmarks the bit-exact recursive walk on
// the same full force step. It is the
// uniform-stepping baseline the block-timestep guard prices against:
// an exact integrator stepping every particle at the finest occupied
// dt pays this once per tick.
func treecodeStepExactEntry() Entry {
	const n = 20000
	sys := nbody.NewPlummer(n, 1, 2001)
	sys.Eps = blockStepEps
	f := &treecode.Forcer{Theta: 0.7, Workers: runtime.GOMAXPROCS(0), Engine: treecode.EngineRecursive,
		Reuse: treecode.ReuseOff}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check2(b, f.Forces(sys))
		}
	})
	return Entry{
		Name:        fmt.Sprintf("treecode/step-exact/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// treecodeReuseEntries prices the persistent tree maintainer (PR 10).
// The head-to-head pair isolates the structural work a step really
// pays: treecode/reuse/maintain drifts the system by one leapfrog kick
// and maintains the warm TreeCache (adaptive re-sort + octant
// patching, zero steady-state allocations), while maintain-fresh pays
// a full Build for the identical drift sequence. Both run single
// worker so the ratio measures the algorithm, not the pool. The
// reuse/step and reuse/blockstep entries then measure the end-to-end
// integrator paths with reuse on, guarded against the ReuseOff
// baselines recorded by treecodeStepEntry and blockStepEntries:
// maintained trees are bit-identical, so neither may ever cost more
// than noise — force sweeps dominate both paths, so the build savings
// show up as a bounded win, largest on the build-heavy block
// hierarchy.
func treecodeReuseEntries() []Entry {
	const (
		n  = 20000
		dt = 0.005
	)
	drift := func(s *nbody.System) {
		for i := 0; i < s.N(); i++ {
			s.X[i] += dt * s.VX[i]
			s.Y[i] += dt * s.VY[i]
			s.Z[i] += dt * s.VZ[i]
		}
	}

	msys := nbody.NewPlummer(n, 1, 2001)
	cache := treecode.NewTreeCache()
	opt := treecode.BuildOptions{Workers: 1}
	srcs := treecode.SourcesFromSystem(msys)
	_, err := cache.Step(srcs, opt)
	check(err)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drift(msys)
			srcs = treecode.AppendSources(srcs[:0], msys)
			if _, err := cache.Step(srcs, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := cache.Stats
	out := []Entry{{
		Name:        fmt.Sprintf("treecode/reuse/maintain/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics: map[string]float64{
			"nodes_reused":     float64(st.NodesReused),
			"subtrees_rebuilt": float64(st.SubtreesRebuilt),
			"keys_moved":       float64(st.KeysMoved),
			"maintained_steps": float64(st.Steps - st.FullBuilds),
			"full_builds":      float64(st.FullBuilds),
		},
	}}

	fsys := nbody.NewPlummer(n, 1, 2001)
	fsrcs := treecode.SourcesFromSystem(fsys)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drift(fsys)
			fsrcs = treecode.AppendSources(fsrcs[:0], fsys)
			_, err := treecode.Build(fsrcs, opt)
			check2(b, err)
		}
	})
	out = append(out, Entry{
		Name:        fmt.Sprintf("treecode/reuse/maintain-fresh/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	})

	// End-to-end force step with the maintainer on, plus an exact
	// bit-identity probe against the fresh-build path: a short leapfrog
	// either way must produce the same accelerations bit for bit.
	ssys := nbody.NewPlummer(n, 1, 2001)
	sf := &treecode.Forcer{Theta: 0.7, Workers: runtime.GOMAXPROCS(0), Reuse: treecode.ReuseOn}
	check(sf.Forces(ssys)) // warm the cache and walk index
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drift(ssys)
			check2(b, sf.Forces(ssys))
		}
	})
	identical := 1.0
	a := nbody.NewPlummer(4096, 1, 7)
	bsys := nbody.NewPlummer(4096, 1, 7)
	check(a.Leapfrog(&treecode.Forcer{Theta: 0.7, Reuse: treecode.ReuseOn}, dt, 4))
	check(bsys.Leapfrog(&treecode.Forcer{Theta: 0.7, Reuse: treecode.ReuseOff}, dt, 4))
	for i := 0; i < a.N(); i++ {
		if math.Float64bits(a.AX[i]) != math.Float64bits(bsys.AX[i]) ||
			math.Float64bits(a.X[i]) != math.Float64bits(bsys.X[i]) {
			identical = 0
		}
	}
	out = append(out, Entry{
		Name:        fmt.Sprintf("treecode/reuse/step/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     map[string]float64{"bit_identical": identical},
	})

	// The block hierarchy re-evaluates forces once per occupied rung
	// tick, each previously paying a redundant build — the build-heavy
	// regime the maintainer was built for. Same system, config and
	// per-op step count as treecode/blockstep/n=20000.
	bsys2 := nbody.NewPlummer(n, 1, 2001)
	bsys2.Eps = blockStepEps
	bf := &treecode.Forcer{Theta: 0.7, Workers: runtime.GOMAXPROCS(0), Reuse: treecode.ReuseOn}
	var bs nbody.BlockStepper
	cfg := nbody.BlockConfig{DT: 0.02, MaxRung: 6}
	const stepsPerOp = 2
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check2(b, bs.Run(bsys2, bf, cfg, stepsPerOp))
		}
	})
	out = append(out, Entry{
		Name:        fmt.Sprintf("treecode/reuse/blockstep/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()) / stepsPerOp,
		AllocsPerOp: r.AllocsPerOp(),
		Metrics: map[string]float64{
			"max_rung_used": float64(bs.Stats.MaxRungUsed),
		},
	})
	return out
}

// blockStepEps is the softening of the block-timestep benchmark
// system. The default 0.01 keeps an equal-mass Plummer sphere nearly
// single-scale (at n=20000 per-particle masses are tiny, so even close
// pairs never accelerate hard and everyone lands on the same rung);
// 0.001 lets close encounters reach the fine rungs while the halo
// stays coarse — the multi-scale regime hierarchical timesteps exist
// for. The exact baseline runs the same system: per-step force cost is
// independent of eps, so the comparison prices identical physics.
const blockStepEps = 0.001

// blockStepEntries benchmarks hierarchical block timesteps over the
// default dual-tree engine: ns per base step at n=20000 (the perf side
// the ≥3x combined-speedup guard divides into the exact baseline), and
// the energy drift of 100 base steps at n=4096 (the accuracy side).
func blockStepEntries() []Entry {
	const (
		n          = 20000
		stepsPerOp = 2
	)
	sys := nbody.NewPlummer(n, 1, 2001)
	sys.Eps = blockStepEps
	f := &treecode.Forcer{Theta: 0.7, Workers: runtime.GOMAXPROCS(0), Reuse: treecode.ReuseOff}
	var bs nbody.BlockStepper
	cfg := nbody.BlockConfig{DT: 0.02, MaxRung: 6}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check2(b, bs.Run(sys, f, cfg, stepsPerOp))
		}
	})
	st := bs.Stats
	out := []Entry{{
		Name:        fmt.Sprintf("treecode/blockstep/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()) / stepsPerOp,
		AllocsPerOp: r.AllocsPerOp(),
		Metrics: map[string]float64{
			"max_rung_used": float64(st.MaxRungUsed),
			"updates":       float64(st.Updates),
			"saved":         float64(st.Saved),
		},
	}}

	es := nbody.NewPlummer(4096, 1, 2001)
	k0, p0 := es.Energy()
	var eb nbody.BlockStepper
	ef := &treecode.Forcer{Theta: 0.7, Workers: runtime.GOMAXPROCS(0), Reuse: treecode.ReuseOff}
	t0 := time.Now()
	check(eb.Run(es, ef, nbody.BlockConfig{DT: 0.01, MaxRung: 4}, 100))
	wall := time.Since(t0)
	k1, p1 := es.Energy()
	drift := math.Abs((k1 + p1 - k0 - p0) / (k0 + p0))
	out = append(out, Entry{
		Name:    "treecode/blockstep/energy/n=4096",
		NsPerOp: float64(wall.Nanoseconds()) / 100,
		Metrics: map[string]float64{
			"energy_drift":  drift,
			"max_rung_used": float64(eb.Stats.MaxRungUsed),
		},
	})
	return out
}

// forceEngineEntries benchmarks the two force-evaluation engines head
// to head on a prebuilt tree, single-threaded: one op is a full force
// sweep over every particle. The recursive walk is the golden
// baseline; the dual-tree engine — which amortizes each MAC decision
// over a whole target subtree — carries the ≥1.5x single-thread
// throughput guard.
func forceEngineEntries() []Entry {
	const n = 20000
	sys := nbody.NewPlummer(n, 1, 2001)
	tr, err := treecode.Build(treecode.SourcesFromSystem(sys), treecode.BuildOptions{})
	check(err)
	var out []Entry

	// Direct-summation reference accelerations for the per-engine RMS
	// force errors (G = 1 for Plummer systems, so raw engine output is
	// directly comparable).
	ref := nbody.NewPlummer(n, 1, 2001)
	ref.DirectForces()
	rmsError := func() float64 {
		var sum float64
		for i := 0; i < n; i++ {
			dx := sys.AX[i] - ref.AX[i]
			dy := sys.AY[i] - ref.AY[i]
			dz := sys.AZ[i] - ref.AZ[i]
			den := ref.AX[i]*ref.AX[i] + ref.AY[i]*ref.AY[i] + ref.AZ[i]*ref.AZ[i]
			sum += (dx*dx + dy*dy + dz*dz) / den
		}
		return math.Sqrt(sum / float64(n))
	}

	var st treecode.Stats
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				ax, ay, az := tr.ForceAt(sys.X[j], sys.Y[j], sys.Z[j], j, 0.7, sys.Eps, &st)
				sys.AX[j], sys.AY[j], sys.AZ[j] = ax, ay, az
			}
		}
	})
	out = append(out, Entry{
		Name:        fmt.Sprintf("force/recursive/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     map[string]float64{"rms_error": rmsError()},
	})

	// The dual-tree engine: mutual traversal over coarse target tasks,
	// refined to group frames — the default, guarded to at least match
	// the recursive walk's accuracy with zero steady-state allocations.
	tasks := tr.AppendGroups(nil, treecode.DualTaskSize)
	ar := treecode.NewWalkArena()
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Warm the arena to its high-water capacity, then measure the
		// allocation-free steady state.
		for _, ti := range tasks {
			tr.DualForceWalk(ti, 0.7, sys.Eps, nil, ar, &st)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ti := range tasks {
				tr.DualForceWalk(ti, 0.7, sys.Eps, nil, ar, &st)
				for k := 0; k < ar.NumTargets(); k++ {
					j, ax, ay, az := ar.Target(k)
					sys.AX[j], sys.AY[j], sys.AZ[j] = ax, ay, az
				}
			}
		}
	})
	out = append(out, Entry{
		Name:        fmt.Sprintf("force/dual/n=%d", n),
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		Metrics:     map[string]float64{"rms_error": rmsError()},
	})
	return out
}

// hostParallelEntries benchmarks the internal/par execution layer —
// tree build and treecode forces, serial versus the full worker pool —
// mirroring BenchmarkHostParallel in bench_test.go.
func hostParallelEntries() []Entry {
	const n = 30000
	sys := nbody.NewPlummer(n, 1, 2001)
	srcs := treecode.SourcesFromSystem(sys)
	widths := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		widths = append(widths, g)
	}
	var out []Entry
	for _, wkr := range widths {
		wkr := wkr
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := treecode.Build(srcs, treecode.BuildOptions{Workers: wkr})
				check2(b, err)
			}
		})
		out = append(out, Entry{
			Name:        fmt.Sprintf("hostparallel/treebuild/workers=%d", wkr),
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fsys := nbody.NewPlummer(n, 1, 2001)
		f := &treecode.Forcer{Theta: 0.7, Workers: wkr, Reuse: treecode.ReuseOff}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				check2(b, f.Forces(fsys))
			}
		})
		out = append(out, Entry{
			Name:        fmt.Sprintf("hostparallel/treeforces/workers=%d", wkr),
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out
}

// mpiEntries benchmarks the MPI substrate's allreduce hot path: one op
// is a full 8-rank in-place allreduce of 512 float64s, with the buffer
// pools on (the shipping configuration) and off (the baseline the
// zero-alloc messaging is measured against). Allocations anywhere in
// the world's rank goroutines count: testing.Benchmark reads the
// process-wide allocator statistics.
func mpiEntries() []Entry {
	var out []Entry
	for _, disable := range []bool{false, true} {
		name := "mpi/allreduce/pooled"
		if disable {
			name = "mpi/allreduce/unpooled"
		}
		var sim float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			w, err := mpi.NewWorldWithConfig(8, mpi.Config{
				Fabric:       netsim.FastEthernet(),
				DisablePool:  disable,
				ChannelDepth: 256,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			err = w.Run(func(c *mpi.Comm) error {
				buf := make([]float64, 512)
				for i := 0; i < b.N; i++ {
					buf[0] = float64(c.Rank() + i)
					c.AllreduceInto(mpi.Sum, buf)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			sim = w.MaxTime()
		})
		out = append(out, Entry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			Metrics:     map[string]float64{"sim_seconds": sim},
		})
	}
	return out
}

// largePEntries prices the event scheduler's reason to exist: a p=4096
// class-S EP world must complete in event mode with at least 10x fewer
// host goroutines and less live heap than the goroutine scheduler would
// need, extrapolated from a measured p=256 goroutine-mode run
// (goroutines grow linearly in p, the per-pair channel matrix
// quadratically — the extrapolation even underprices the goroutine path
// by using a shallow ChannelDepth). The big run doubles as a
// determinism probe: two fresh event worlds must produce bit-identical
// makespans and checksums.
func largePEntries() []Entry {
	const (
		pBig      = 4096
		pBase     = 256
		baseDepth = 8 // far below the sweep's 256: biases the guard against us
	)
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	check(err)

	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	// peakGoroutines samples runtime.NumGoroutine while fn runs. The
	// sampler adds one goroutine to both measurements, so the bias
	// cancels out of the ratio.
	peakGoroutines := func(fn func()) int {
		stop := make(chan struct{})
		done := make(chan struct{})
		peak := 0
		go func() {
			defer close(done)
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				if g := runtime.NumGoroutine(); g > peak {
					peak = g
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		fn()
		close(stop)
		<-done
		return peak
	}

	// The goroutine-scheduler footprint, measured at the largest size
	// that is still comfortable to instantiate for real.
	h0 := liveHeap()
	g0 := runtime.NumGoroutine()
	wBase, err := mpi.NewWorldWithConfig(pBase, mpi.Config{
		Fabric: netsim.FastEthernet(), ChannelDepth: baseDepth,
	})
	check(err)
	var resBase *nas.ParallelResult
	t0 := time.Now()
	gorBasePeak := peakGoroutines(func() {
		resBase, err = nas.ParallelEP(wBase, nas.ClassS, costs)
	})
	check(err)
	wallBase := time.Since(t0)
	heapBase := liveHeap() - h0
	gorBase := gorBasePeak - g0
	runtime.KeepAlive(wBase)
	wBase = nil

	scale := float64(pBig) / float64(pBase)
	gorExtrap := float64(gorBase) * scale
	heapExtrap := float64(heapBase) * scale * scale

	// The event-scheduler run at the real target size.
	h0 = liveHeap()
	g0 = runtime.NumGoroutine()
	mkEvent := func() *mpi.World {
		w, err := mpi.NewWorldWithConfig(pBig, mpi.Config{
			Fabric: netsim.FastEthernet(), Event: true,
		})
		check(err)
		return w
	}
	wEvent := mkEvent()
	var resEvent *nas.ParallelResult
	t0 = time.Now()
	gorEventPeak := peakGoroutines(func() {
		resEvent, err = nas.ParallelEP(wEvent, nas.ClassS, costs)
	})
	check(err)
	wallEvent := time.Since(t0)
	heapEvent := liveHeap() - h0
	gorEvent := gorEventPeak - g0
	if gorEvent < 1 {
		gorEvent = 1 // the event loop runs in the caller's goroutine
	}
	runtime.KeepAlive(wEvent)

	// Determinism probe: a second fresh world must reproduce the run
	// bit for bit.
	res2, err := nas.ParallelEP(mkEvent(), nas.ClassS, costs)
	check(err)
	deterministic := 0.0
	if math.Float64bits(resEvent.SimTime) == math.Float64bits(res2.SimTime) &&
		math.Float64bits(resEvent.Checksum) == math.Float64bits(res2.Checksum) {
		deterministic = 1.0
	}
	verified := 0.0
	if resEvent.Verified {
		verified = 1.0
	}

	return []Entry{
		{
			Name:    fmt.Sprintf("mpi/largep/ep-base/p=%d", pBase),
			NsPerOp: float64(wallBase.Nanoseconds()),
			Metrics: map[string]float64{
				"ranks":           pBase,
				"sim_seconds":     resBase.SimTime,
				"goroutines_peak": float64(gorBase),
				"heap_live_bytes": float64(heapBase),
			},
		},
		{
			Name:    "mpi/largep/ep",
			NsPerOp: float64(wallEvent.Nanoseconds()),
			Metrics: map[string]float64{
				"ranks":                   pBig,
				"sim_seconds":             resEvent.SimTime,
				"verified":                verified,
				"deterministic":           deterministic,
				"goroutines_event":        float64(gorEvent),
				"goroutines_extrapolated": gorExtrap,
				"goroutine_ratio":         gorExtrap / float64(gorEvent),
				"heap_event_bytes":        float64(heapEvent),
				"heap_extrapolated_bytes": heapExtrap,
			},
		},
	}
}

// sweepEntries times the parallel NAS rank sweep (p = 1..8, class S)
// serially, concurrently, and on the event scheduler. The simulated
// makespan sum is a pure function of the sweep's programs, so it
// doubles as the determinism fingerprint the guard compares exactly —
// across host scheduling and across rank schedulers.
func sweepEntries() []Entry {
	var out []Entry
	for _, variant := range []string{"serial", "concurrent", "event"} {
		name := "sweep/nas/" + variant
		cfg := core.DefaultNASSweepConfig()
		cfg.Ranks = cfg.Ranks[:8]
		cfg.Concurrent = variant != "serial"
		if variant == "event" {
			cfg.Mode = "event"
		}
		t0 := time.Now()
		rows, _, err := core.NewRun().NASSweep(cfg)
		check(err)
		wall := time.Since(t0)
		var simSum float64
		for _, row := range rows {
			simSum += row.EPTime + row.ISTime
		}
		out = append(out, Entry{
			Name:    name,
			NsPerOp: float64(wall.Nanoseconds()),
			Metrics: map[string]float64{"sim_makespan_sum": simSum},
		})
	}
	return out
}

// designoptEntries benchmarks the ToPPeR design-space optimizer:
// default-grid sweep throughput with the memo on (the production
// configuration), the memo's speedup on a fabric-heavy grid (six
// fabrics, node counts to 1024 — the regime where the O(p) network
// solve dominates a candidate's cost), the zero-allocation steady
// state of the candidate evaluator, and the frontier's determinism
// across worker counts and pruning.
func designoptEntries() []Entry {
	var out []Entry

	// Default grid, exhaustively enumerated (NoPrune) so candidates/sec
	// and the memo hit rate measure the evaluator, not the prune rate.
	g := designopt.DefaultGrid()
	var res *designopt.Result
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			res, err = designopt.Optimize(g, designopt.Options{NoPrune: true})
			check2(b, err)
		}
	})
	out = append(out, Entry{
		Name:    "designopt/sweep/default",
		NsPerOp: float64(r.NsPerOp()),
		Metrics: map[string]float64{
			"candidates":         float64(res.Candidates),
			"candidates_per_sec": float64(res.Candidates) / (float64(r.NsPerOp()) / 1e9),
			"memo_hit_rate":      res.MemoHitRate(),
			"frontier_size":      float64(len(res.Frontier)),
		},
	})

	// The memo's reason to exist, priced on a fabric-heavy grid. Both
	// sides enumerate exhaustively so they do identical candidate work;
	// only the network-solve caching differs.
	heavy := designopt.DefaultGrid()
	heavy.Fabrics = heavy.Fabrics[:0]
	for _, name := range []string{"fe", "ge", "fe-fattree", "ge-fattree", "ge-torus2d", "ge-torus3d"} {
		f, err := designopt.ParseFabric(name)
		check(err)
		heavy.Fabrics = append(heavy.Fabrics, f)
	}
	heavy.Nodes = []int{64, 128, 256, 512, 1024}
	for _, noMemo := range []bool{false, true} {
		name := "designopt/sweep/memo=on"
		if noMemo {
			name = "designopt/sweep/memo=off"
		}
		var hres *designopt.Result
		hr := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				hres, err = designopt.Optimize(heavy, designopt.Options{NoPrune: true, NoMemo: noMemo})
				check2(b, err)
			}
		})
		out = append(out, Entry{
			Name:    name,
			NsPerOp: float64(hr.NsPerOp()),
			Metrics: map[string]float64{
				"candidates":    float64(hres.Candidates),
				"memo_hit_rate": hres.MemoHitRate(),
				"frontier_size": float64(len(hres.Frontier)),
			},
		})
	}

	// The steady-state inner loop: with every memo cell warm, scoring a
	// candidate must allocate nothing.
	mg := designopt.DefaultGrid()
	memo := designopt.NewMemo(mg)
	ev := designopt.NewEvaluator(mg, memo)
	na, nn, nf := len(mg.Ambients), len(mg.Nodes), len(mg.Fabrics)
	var pt designopt.Point
	for fi := 0; fi < nf; fi++ {
		for ni := 0; ni < nn; ni++ {
			ev.Eval(0, 0, fi, ni, 0, &pt)
		}
	}
	i := 0
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for k := 0; k < b.N; k++ {
			ev.Eval(i%len(mg.CPUs), (i/len(mg.CPUs))%len(mg.Packs), i%nf, i%nn, i%na, &pt)
			i++
		}
	})
	out = append(out, Entry{
		Name:        "designopt/eval",
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	})

	// Determinism fingerprint: the pruned frontier at 1, 2 and 8 workers
	// must equal the exhaustive frontier bit for bit.
	dg := designopt.DefaultGrid()
	exhaustive, err := designopt.Optimize(dg, designopt.Options{NoPrune: true})
	check(err)
	want := designopt.Fingerprint(exhaustive.Frontier)
	deterministic := 1.0
	t0 := time.Now()
	for _, workers := range []int{1, 2, 8} {
		pr, err := designopt.Optimize(dg, designopt.Options{Workers: workers})
		check(err)
		if designopt.Fingerprint(pr.Frontier) != want {
			deterministic = 0
		}
	}
	out = append(out, Entry{
		Name:    "designopt/frontier/deterministic",
		NsPerOp: float64(time.Since(t0).Nanoseconds()) / 3,
		Metrics: map[string]float64{
			"deterministic": deterministic,
			"frontier_size": float64(len(exhaustive.Frontier)),
		},
	})
	return out
}

func check2(b *testing.B, err error) {
	if err != nil {
		b.Fatal(err)
	}
}

func find(rep *Report, name string) *Entry {
	return rep.Find(name)
}

// guardReport applies the in-run regression checks.
func guardReport(rep *Report) error {
	// Deterministic: with gears on, the simulated machine must never get
	// slower (exact — cycle counts don't depend on the host).
	for _, variant := range []kernels.GravVariant{kernels.GravMath, kernels.GravKarp} {
		off := find(rep, fmt.Sprintf("gravmicro/%s/gears=false", variant))
		on := find(rep, fmt.Sprintf("gravmicro/%s/gears=true", variant))
		if off == nil || on == nil {
			return fmt.Errorf("guard: missing gravmicro entries for %s", variant)
		}
		if on.Metrics["sim_cycles"] >= off.Metrics["sim_cycles"] {
			return fmt.Errorf("guard: gears raised simulated cycles on %s: %.0f → %.0f",
				variant, off.Metrics["sim_cycles"], on.Metrics["sim_cycles"])
		}
	}
	// The force engines' bars. The dual-tree engine — which amortizes
	// each MAC decision over a whole target subtree — must deliver ≥1.5x
	// single-thread force throughput over the recursive walk, in an
	// allocation-free steady state, with at least the recursive walk's
	// accuracy (mutual acceptance is conservative relative to the
	// per-particle MAC, so dual must never be the less accurate engine).
	// The recursive walk's own bar is zero allocations.
	recEntry := find(rep, "force/recursive/n=20000")
	dualEntry := find(rep, "force/dual/n=20000")
	if recEntry == nil || dualEntry == nil {
		return fmt.Errorf("guard: missing force engine entries")
	}
	if recEntry.NsPerOp < 1.5*dualEntry.NsPerOp {
		return fmt.Errorf("guard: dual-tree engine under 1.5x recursive throughput: %.0f vs %.0f ns/op (%.2fx)",
			dualEntry.NsPerOp, recEntry.NsPerOp, recEntry.NsPerOp/dualEntry.NsPerOp)
	}
	if recEntry.AllocsPerOp != 0 {
		return fmt.Errorf("guard: recursive force sweep allocates: %d allocs/op, want 0",
			recEntry.AllocsPerOp)
	}
	if dualEntry.AllocsPerOp != 0 {
		return fmt.Errorf("guard: dual-tree force sweep allocates: %d allocs/op, want 0",
			dualEntry.AllocsPerOp)
	}
	if dualEntry.Metrics["rms_error"] > recEntry.Metrics["rms_error"] {
		return fmt.Errorf("guard: dual-tree RMS force error %.3e exceeds recursive %.3e",
			dualEntry.Metrics["rms_error"], recEntry.Metrics["rms_error"])
	}
	// The PR 6 headline: dual-tree traversal plus hierarchical block
	// timesteps must deliver ≥3x the exact engine per unit of simulated
	// time. The exact baseline steps every particle at the finest
	// occupied dt, paying one recursive-walk force step per tick —
	// 2^rung of them per base step; the block integrator covers the
	// same base step in NsPerOp.
	exact := find(rep, "treecode/step-exact/n=20000")
	blk := find(rep, "treecode/blockstep/n=20000")
	if exact == nil || blk == nil {
		return fmt.Errorf("guard: missing treecode/step-exact or treecode/blockstep entry")
	}
	ticks := math.Pow(2, blk.Metrics["max_rung_used"])
	combined := exact.NsPerOp * ticks / blk.NsPerOp
	if combined < 3.0 {
		return fmt.Errorf("guard: dual+block engine only %.2fx the exact uniform baseline (want ≥3x): %.0f ns × %g ticks vs %.0f ns per base step",
			combined, exact.NsPerOp, ticks, blk.NsPerOp)
	}
	// The tree maintainer's bars. Structural head-to-head, single
	// worker, identical drift sequences: maintaining the warm cache must
	// beat a fresh build at least 1.3x (measured ~2.8x — the sort and
	// node partitioning are what a step's tiny drift lets it skip), and
	// the steady state must not allocate (exact — the arena,
	// permutation and scratch buffers are all retained across steps).
	// End to end, a maintained tree is bit-identical to a fresh one, so
	// neither the reuse force step nor the reuse block hierarchy may
	// ever run slower than its fresh-build twin beyond noise — force
	// sweeps dominate both end-to-end paths, so the build savings
	// surface as a bounded win (~5% on the uniform step, ~15% on the
	// build-heavier block hierarchy), not a ratio worth pinning on a
	// shared host. The bit_identical metric is exact: a short leapfrog
	// with the maintainer on must reproduce the fresh path bit for bit.
	maintain := find(rep, "treecode/reuse/maintain/n=20000")
	maintainFresh := find(rep, "treecode/reuse/maintain-fresh/n=20000")
	reuseStep := find(rep, "treecode/reuse/step/n=20000")
	reuseBlk := find(rep, "treecode/reuse/blockstep/n=20000")
	if maintain == nil || maintainFresh == nil || reuseStep == nil || reuseBlk == nil {
		return fmt.Errorf("guard: missing treecode/reuse entries")
	}
	if maintainFresh.NsPerOp < 1.3*maintain.NsPerOp {
		return fmt.Errorf("guard: tree maintenance only %.2fx a fresh build (want ≥1.3x): %.0f vs %.0f ns/op",
			maintainFresh.NsPerOp/maintain.NsPerOp, maintain.NsPerOp, maintainFresh.NsPerOp)
	}
	if maintain.AllocsPerOp != 0 {
		return fmt.Errorf("guard: steady-state tree maintenance allocates: %d allocs/op, want 0",
			maintain.AllocsPerOp)
	}
	if reuseStep.Metrics["bit_identical"] != 1 {
		return fmt.Errorf("guard: reused trees are not bit-identical to fresh builds over a leapfrog")
	}
	stepEntry := find(rep, "treecode/step/n=20000")
	if stepEntry == nil {
		return fmt.Errorf("guard: missing treecode/step entry")
	}
	if reuseStep.NsPerOp > stepEntry.NsPerOp*slowdownTolerance {
		return fmt.Errorf("guard: reuse force step is >%.0f%% slower than the fresh-build step: %.0f vs %.0f ns/op",
			(slowdownTolerance-1)*100, reuseStep.NsPerOp, stepEntry.NsPerOp)
	}
	if reuseBlk.NsPerOp > blk.NsPerOp*slowdownTolerance {
		return fmt.Errorf("guard: reuse blockstep is >%.0f%% slower than the fresh-build blockstep: %.0f vs %.0f ns per base step",
			(slowdownTolerance-1)*100, reuseBlk.NsPerOp, blk.NsPerOp)
	}
	// Accuracy side of the same bargain: the hierarchy must not trade
	// away energy conservation.
	energy := find(rep, "treecode/blockstep/energy/n=4096")
	if energy == nil {
		return fmt.Errorf("guard: missing treecode/blockstep/energy entry")
	}
	if drift := energy.Metrics["energy_drift"]; drift > 1e-3 {
		return fmt.Errorf("guard: block-timestep energy drift %.3e over 100 base steps, want ≤ 1e-3", drift)
	}
	// Host-side, tolerance-based: the worker pool must not run slower
	// than serial beyond noise.
	g := rep.GOMAXPROCS
	if g > 1 {
		for _, kind := range []string{"treebuild", "treeforces"} {
			serial := find(rep, fmt.Sprintf("hostparallel/%s/workers=1", kind))
			wide := find(rep, fmt.Sprintf("hostparallel/%s/workers=%d", kind, g))
			if serial == nil || wide == nil {
				return fmt.Errorf("guard: missing hostparallel/%s entries", kind)
			}
			if wide.NsPerOp > serial.NsPerOp*slowdownTolerance {
				return fmt.Errorf("guard: hostparallel/%s at %d workers is >%.0f%% slower than serial: %.0f vs %.0f ns/op",
					kind, g, (slowdownTolerance-1)*100, wide.NsPerOp, serial.NsPerOp)
			}
		}
	}
	// The zero-alloc messaging bar: pooling must cut the allreduce hot
	// path's allocation rate at least 5x (exact — the allocator count is
	// deterministic at steady state) and must not cost host time.
	pooled := find(rep, "mpi/allreduce/pooled")
	unpooled := find(rep, "mpi/allreduce/unpooled")
	if pooled == nil || unpooled == nil {
		return fmt.Errorf("guard: missing mpi/allreduce entries")
	}
	if 5*(pooled.AllocsPerOp+1) > unpooled.AllocsPerOp {
		return fmt.Errorf("guard: pooling cut allreduce allocations less than 5x: %d vs %d allocs/op",
			pooled.AllocsPerOp, unpooled.AllocsPerOp)
	}
	if pooled.NsPerOp > unpooled.NsPerOp*slowdownTolerance {
		return fmt.Errorf("guard: pooled allreduce is >%.0f%% slower than unpooled: %.0f vs %.0f ns/op",
			(slowdownTolerance-1)*100, pooled.NsPerOp, unpooled.NsPerOp)
	}
	// Sweep determinism, exact: the concurrent sweep must simulate the
	// same cluster bit-for-bit (the makespans are virtual time, not host
	// time). Host-side, the concurrent sweep must not lose to serial.
	serialSweep := find(rep, "sweep/nas/serial")
	concSweep := find(rep, "sweep/nas/concurrent")
	if serialSweep == nil || concSweep == nil {
		return fmt.Errorf("guard: missing sweep/nas entries")
	}
	if serialSweep.Metrics["sim_makespan_sum"] != concSweep.Metrics["sim_makespan_sum"] {
		return fmt.Errorf("guard: concurrent sweep changed simulated makespans: %g vs %g",
			concSweep.Metrics["sim_makespan_sum"], serialSweep.Metrics["sim_makespan_sum"])
	}
	if g > 1 && concSweep.NsPerOp > serialSweep.NsPerOp*slowdownTolerance {
		return fmt.Errorf("guard: concurrent sweep is >%.0f%% slower than serial: %.0f vs %.0f ns",
			(slowdownTolerance-1)*100, concSweep.NsPerOp, serialSweep.NsPerOp)
	}
	// Scheduler determinism, exact: the event scheduler must simulate
	// the same cluster as the goroutine scheduler, bit for bit.
	eventSweep := find(rep, "sweep/nas/event")
	if eventSweep == nil {
		return fmt.Errorf("guard: missing sweep/nas/event entry")
	}
	if eventSweep.Metrics["sim_makespan_sum"] != serialSweep.Metrics["sim_makespan_sum"] {
		return fmt.Errorf("guard: event sweep changed simulated makespans: %g vs %g",
			eventSweep.Metrics["sim_makespan_sum"], serialSweep.Metrics["sim_makespan_sum"])
	}
	// The large-p event core's bars: the p=4096 EP run must verify,
	// reproduce bit-for-bit across fresh worlds, use ≥10x fewer host
	// goroutines than the goroutine scheduler extrapolates to, and hold
	// less live heap than the goroutine path's channel matrix would.
	largep := find(rep, "mpi/largep/ep")
	if largep == nil {
		return fmt.Errorf("guard: missing mpi/largep/ep entry")
	}
	if largep.Metrics["verified"] != 1 {
		return fmt.Errorf("guard: p=%g event-mode EP did not verify", largep.Metrics["ranks"])
	}
	if largep.Metrics["deterministic"] != 1 {
		return fmt.Errorf("guard: p=%g event-mode EP is not bit-deterministic across fresh worlds",
			largep.Metrics["ranks"])
	}
	if ratio := largep.Metrics["goroutine_ratio"]; ratio < 10 {
		return fmt.Errorf("guard: event core only %.1fx fewer goroutines than the goroutine path at p=%g (want ≥10x): %g vs %g extrapolated",
			ratio, largep.Metrics["ranks"],
			largep.Metrics["goroutines_event"], largep.Metrics["goroutines_extrapolated"])
	}
	if largep.Metrics["heap_event_bytes"] >= largep.Metrics["heap_extrapolated_bytes"] {
		return fmt.Errorf("guard: event core live heap %.0f B at p=%g is not below the goroutine path's extrapolated %.0f B",
			largep.Metrics["heap_event_bytes"], largep.Metrics["ranks"],
			largep.Metrics["heap_extrapolated_bytes"])
	}
	// The design-space optimizer's bars: memoized sweep throughput of at
	// least 100k candidate evaluations per second, a ≥90% memo hit rate
	// on the default grid, a ≥10x memo speedup on the fabric-heavy grid
	// (exact same candidate work either side, only the caching differs),
	// an allocation-free steady-state evaluator, and a pruned frontier
	// bit-identical to exhaustive enumeration across worker counts.
	dflt := find(rep, "designopt/sweep/default")
	if dflt == nil {
		return fmt.Errorf("guard: missing designopt/sweep/default entry")
	}
	if cps := dflt.Metrics["candidates_per_sec"]; cps < 100_000 {
		return fmt.Errorf("guard: memoized design sweep at %.0f candidates/sec, want ≥100000", cps)
	}
	if hit := dflt.Metrics["memo_hit_rate"]; hit < 0.9 {
		return fmt.Errorf("guard: memo hit rate %.3f on the default grid, want ≥0.9", hit)
	}
	memoOn := find(rep, "designopt/sweep/memo=on")
	memoOff := find(rep, "designopt/sweep/memo=off")
	if memoOn == nil || memoOff == nil {
		return fmt.Errorf("guard: missing designopt/sweep/memo entries")
	}
	if memoOff.NsPerOp < 10*memoOn.NsPerOp {
		return fmt.Errorf("guard: memo speedup only %.1fx on the fabric-heavy grid (want ≥10x): %.0f vs %.0f ns/op",
			memoOff.NsPerOp/memoOn.NsPerOp, memoOff.NsPerOp, memoOn.NsPerOp)
	}
	evalEntry := find(rep, "designopt/eval")
	if evalEntry == nil {
		return fmt.Errorf("guard: missing designopt/eval entry")
	}
	if evalEntry.AllocsPerOp != 0 {
		return fmt.Errorf("guard: steady-state candidate evaluation allocates: %d allocs/op, want 0",
			evalEntry.AllocsPerOp)
	}
	detEntry := find(rep, "designopt/frontier/deterministic")
	if detEntry == nil {
		return fmt.Errorf("guard: missing designopt/frontier/deterministic entry")
	}
	if detEntry.Metrics["deterministic"] != 1 {
		return fmt.Errorf("guard: pruned frontier differs from exhaustive enumeration across worker counts")
	}
	return nil
}

// compareReports is the benchstat-style step: every hostparallel, mpi,
// serve (gateway), designopt (design-space optimizer) and
// treecode/reuse (tree maintainer) benchmark in the baseline must
// exist in the current report and must not have slowed down >10%. A
// guarded baseline entry missing from the new report is an error, not
// a skip — in particular a gateway baseline entry that gridload
// stopped emitting, or a maintainer entry that benchreport stopped
// emitting, fails here loudly. Only meaningful when both reports come
// from the same machine.
func compareReports(oldPath string, cur *Report) error {
	old, err := benchfmt.Read(oldPath)
	if err != nil {
		return err
	}
	compared := 0
	for i := range old.Results {
		o := &old.Results[i]
		if !strings.HasPrefix(o.Name, "hostparallel/") && !strings.HasPrefix(o.Name, "mpi/") &&
			!strings.HasPrefix(o.Name, "serve/") && !strings.HasPrefix(o.Name, "designopt/") &&
			!strings.HasPrefix(o.Name, "treecode/reuse/") {
			continue
		}
		n := find(cur, o.Name)
		if n == nil {
			// A baseline entry the comparison is supposed to police must
			// not vanish silently — renames and removals have to update
			// the baseline, or a regression could hide behind them.
			return fmt.Errorf("compare: baseline entry %q missing from the current report", o.Name)
		}
		if o.NsPerOp <= 0 {
			continue
		}
		compared++
		if n.NsPerOp > o.NsPerOp*slowdownTolerance {
			return fmt.Errorf("compare: %s slowed down %.1f%%: %.0f → %.0f ns/op",
				o.Name, 100*(n.NsPerOp/o.NsPerOp-1), o.NsPerOp, n.NsPerOp)
		}
	}
	if compared == 0 {
		return fmt.Errorf("compare: no hostparallel/mpi/serve/designopt benchmarks in common with %s", oldPath)
	}
	return nil
}
