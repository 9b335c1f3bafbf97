// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out.
// Reported custom metrics carry the paper's units (Mflops, Mops, speedup,
// $K, Gflops/kW, ...), so `go test -bench=. -benchmem` reproduces the
// evaluation's numbers alongside the harness's own cost.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cms"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/treecode"
	"repro/internal/vliw"
)

// --- Table 1: gravitational microkernel across five processors ---

func BenchmarkTable1(b *testing.B) {
	for _, p := range cpu.EvaluationCPUs() {
		for _, variant := range []kernels.GravVariant{kernels.GravMath, kernels.GravKarp} {
			b.Run(fmt.Sprintf("%s/%s", p.Name(), variant), func(b *testing.B) {
				g := kernels.DefaultGravMicro(variant)
				var mflops float64
				for i := 0; i < b.N; i++ {
					prog, st, err := g.Build()
					if err != nil {
						b.Fatal(err)
					}
					res, err := p.RunKernel(prog, st)
					if err != nil {
						b.Fatal(err)
					}
					mflops = res.Mflops()
				}
				b.ReportMetric(mflops, "Mflops")
			})
		}
	}
}

// --- Table 2: N-body scalability on the 24-blade MetaBlade ---

func BenchmarkTable2(b *testing.B) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateTree)
	if err != nil {
		b.Fatal(err)
	}
	cm := treecode.CostModel{
		SecondsPerInteraction: costs.Seconds(treecode.InteractionMix()),
		SecondsPerBuildSource: costs.Seconds(treecode.BuildMix()),
	}
	const particles = 30000
	var t1 float64
	for _, p := range []int{1, 2, 4, 8, 16, 24} {
		b.Run(fmt.Sprintf("cpus=%d", p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				s := nbody.NewPlummer(particles, 1, 2001)
				w, err := mpi.NewWorld(p, netsim.FastEthernet())
				if err != nil {
					b.Fatal(err)
				}
				res, err := treecode.ParallelForces(w, s, treecode.ParallelConfig{
					Theta: 0.7, Eps: s.Eps, Cost: cm,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimTime
			}
			if p == 1 {
				t1 = sim
			}
			b.ReportMetric(sim, "sim-seconds")
			if t1 > 0 {
				b.ReportMetric(t1/sim, "speedup")
			}
		})
	}
}

// --- Table 3: NPB 2.3 per-processor Mops ---

func BenchmarkTable3(b *testing.B) {
	class := nas.ClassW
	if testing.Short() {
		class = nas.ClassS
	}
	procs := cpu.NASCPUs()
	costs := make([]cpu.EffCosts, len(procs))
	for i, p := range procs {
		var err error
		costs[i], err = cpu.CalibrateFor(p, cpu.MissRateClassW)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range nas.Table3Kernels() {
		k := k
		b.Run(fmt.Sprintf("%s/class%s", k.Name(), class), func(b *testing.B) {
			var r *nas.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = k.Run(class)
				if err != nil {
					b.Fatal(err)
				}
			}
			if !r.Verified {
				b.Fatalf("%s failed verification", k.Name())
			}
			for i, p := range procs {
				b.ReportMetric(costs[i].Mops(r.Ops, &r.Mix), "Mops-"+shortCPU(p.Name()))
			}
		})
	}
}

func shortCPU(name string) string {
	switch name {
	case "1200-MHz AMD Athlon MP":
		return "Athlon"
	case "500-MHz Intel Pentium III":
		return "PIII"
	case "633-MHz Transmeta TM5600":
		return "TM5600"
	case "375-MHz IBM Power3":
		return "Power3"
	}
	return name
}

// --- Table 4: historical treecode ratings ---

func BenchmarkTable4(b *testing.B) {
	var rows []core.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = core.NewRun().Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MflopPerProc, "Mflops/proc-"+sanitize(r.Machine))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', '\'':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- Table 5: TCO, plus the ToPPeR conclusion ---

func BenchmarkTable5(b *testing.B) {
	var rows []core.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = core.NewRun().Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.B.TCO()/1000, "TCO-$K-"+r.Name)
	}
	s, err := core.NewRun().ToPPeR()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.ToPPeRAdvantage, "ToPPeR-advantage")
}

// --- Tables 6 and 7: performance/space and performance/power ---

func BenchmarkTable6And7(b *testing.B) {
	var rows []core.SpacePowerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, _, err = core.NewRun().SpacePower()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PerfSpace, "Mflops/ft2-"+sanitize(r.Machine))
		b.ReportMetric(r.PerfPower, "Gflops/kW-"+sanitize(r.Machine))
	}
}

// --- Figure 3: the N-body rendering ---

func BenchmarkFigure3(b *testing.B) {
	cfg := core.Figure3Config{Particles: 10000, Steps: 5, Width: 72, Height: 36}
	var interactions uint64
	for i := 0; i < b.N; i++ {
		_, sys, err := core.NewRun().Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		interactions = sys.Interactions
	}
	b.ReportMetric(float64(interactions), "interactions")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkCMSHotThreshold sweeps the interpret→translate crossover.
func BenchmarkCMSHotThreshold(b *testing.B) {
	g := kernels.GravMicro{Variant: kernels.GravKarp, NBodies: 8, Iters: 200,
		TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 3}
	for _, hot := range []int{1, 8, 24, 100, 1000, 1 << 30} {
		b.Run(fmt.Sprintf("hot=%d", hot), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				prog, st, err := g.Build()
				if err != nil {
					b.Fatal(err)
				}
				params := cms.DefaultParams()
				params.HotThreshold = hot
				m := cms.NewMachine(params, vliw.TM5600Timing())
				cycles, _, err = m.Run(prog, st, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkMoleculeWidth compares the 128-bit (4-atom) and 64-bit
// (2-atom) molecule formats.
func BenchmarkMoleculeWidth(b *testing.B) {
	g := kernels.GravMicro{Variant: kernels.GravKarp, NBodies: 8, Iters: 200,
		TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 3}
	for _, wide := range []bool{true, false} {
		name := "wide-128bit"
		if !wide {
			name = "narrow-64bit"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			var density float64
			for i := 0; i < b.N; i++ {
				prog, st, err := g.Build()
				if err != nil {
					b.Fatal(err)
				}
				m := cms.NewMachine(cms.DefaultParams(), vliw.TM5600Timing())
				m.Trans.Wide = wide
				cycles, _, err = m.Run(prog, st, 0)
				if err != nil {
					b.Fatal(err)
				}
				density = m.Stats().PackingDensity()
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(density, "atoms/molecule")
		})
	}
}

// BenchmarkTreecodeTheta sweeps the multipole acceptance parameter:
// accuracy versus work.
func BenchmarkTreecodeTheta(b *testing.B) {
	const n = 4000
	ref := nbody.NewPlummer(n, 1, 5)
	ref.DirectForces()
	for _, theta := range []float64{0.3, 0.5, 0.7, 0.9, 1.2} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			var inter uint64
			var rms float64
			for i := 0; i < b.N; i++ {
				s := nbody.NewPlummer(n, 1, 5)
				f := &treecode.Forcer{Theta: theta}
				if err := f.Forces(s); err != nil {
					b.Fatal(err)
				}
				inter = f.LastStats.Interactions()
				var sum, norm float64
				for j := 0; j < n; j++ {
					dx := s.AX[j] - ref.AX[j]
					dy := s.AY[j] - ref.AY[j]
					dz := s.AZ[j] - ref.AZ[j]
					sum += dx*dx + dy*dy + dz*dz
					norm += ref.AX[j]*ref.AX[j] + ref.AY[j]*ref.AY[j] + ref.AZ[j]*ref.AZ[j]
				}
				rms = sum / norm
			}
			b.ReportMetric(float64(inter), "interactions")
			b.ReportMetric(rms, "rms-err-sq")
		})
	}
}

// BenchmarkForceEngines races the two force-evaluation engines — the
// bit-exact recursive walk and the amortized dual-tree walk —
// single-threaded over a prebuilt tree, at the two sizes
// EXPERIMENTS.md records (one op = a full force sweep).
func BenchmarkForceEngines(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		recursive, dual := forceSweeps(b, n)
		b.Run(fmt.Sprintf("recursive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recursive()
			}
		})
		b.Run(fmt.Sprintf("dual/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dual()
			}
		})
	}
}

// forceSweeps returns one full single-threaded force sweep per engine
// over a prebuilt tree of an n-particle Plummer sphere.
func forceSweeps(tb testing.TB, n int) (recursive, dual func()) {
	sys := nbody.NewPlummer(n, 1, 2001)
	tr, err := treecode.Build(treecode.AppendSources(nil, sys), treecode.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	var st treecode.Stats
	recursive = func() {
		for j := 0; j < n; j++ {
			sys.AX[j], sys.AY[j], sys.AZ[j] = tr.ForceAt(sys.X[j], sys.Y[j], sys.Z[j], j, 0.7, sys.Eps, &st)
		}
	}
	ar := treecode.NewWalkArena()
	tasks := tr.AppendGroups(nil, treecode.DualTaskSize)
	dual = func() {
		for _, ti := range tasks {
			tr.DualForceWalk(ti, 0.7, sys.Eps, nil, ar, &st)
			for k := 0; k < ar.NumTargets(); k++ {
				j, ax, ay, az := ar.Target(k)
				sys.AX[j], sys.AY[j], sys.AZ[j] = ax, ay, az
			}
		}
	}
	return recursive, dual
}

// BenchmarkDirectVsTree locates the O(N²)/O(N log N) crossover.
func BenchmarkDirectVsTree(b *testing.B) {
	for _, n := range []int{100, 300, 1000, 3000} {
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			s := nbody.NewPlummer(n, 1, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DirectForces()
			}
		})
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			s := nbody.NewPlummer(n, 1, 7)
			f := &treecode.Forcer{Theta: 0.7}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Forces(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkSweep moves Table 2's efficiency knee across
// 10/100/1000 Mb/s fabrics.
func BenchmarkNetworkSweep(b *testing.B) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateTree)
	if err != nil {
		b.Fatal(err)
	}
	cm := treecode.CostModel{
		SecondsPerInteraction: costs.Seconds(treecode.InteractionMix()),
		SecondsPerBuildSource: costs.Seconds(treecode.BuildMix()),
	}
	fabrics := []*netsim.Fabric{netsim.Ethernet10(), netsim.FastEthernet(), netsim.GigabitEthernet()}
	const particles = 20000
	for _, fab := range fabrics {
		b.Run(sanitize(fab.Name), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				times := map[int]float64{}
				for _, p := range []int{1, 24} {
					s := nbody.NewPlummer(particles, 1, 2001)
					w, err := mpi.NewWorld(p, fab)
					if err != nil {
						b.Fatal(err)
					}
					res, err := treecode.ParallelForces(w, s, treecode.ParallelConfig{
						Theta: 0.7, Eps: s.Eps, Cost: cm,
					})
					if err != nil {
						b.Fatal(err)
					}
					times[p] = res.SimTime
				}
				eff = times[1] / times[24] / 24
			}
			b.ReportMetric(eff, "efficiency@24")
		})
	}
}

// BenchmarkAmbientTemperature applies the paper's failure-rate doubling
// rule across machine-room temperatures.
func BenchmarkAmbientTemperature(b *testing.B) {
	rel := cluster.DefaultReliability()
	for _, ambient := range []float64{18, 24, 30, 36} {
		b.Run(fmt.Sprintf("ambient=%.0fC", ambient), func(b *testing.B) {
			var fails float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New("sweep", cluster.NodeP4, cluster.TraditionalPackaging(), 24, ambient)
				if err != nil {
					b.Fatal(err)
				}
				fails = c.ExpectedFailuresPerYear(rel)
			}
			b.ReportMetric(fails, "failures/yr")
		})
	}
}

// BenchmarkHostParallel measures the internal/par execution layer on the
// real host: the treecode force step and O(N²) direct forces at
// N=30000, serial (workers=1) versus the full worker pool
// (workers=GOMAXPROCS), plus the tree build, which is serial at every
// width. Force output is bit-identical across widths (asserted by the
// determinism tests); only wall-clock changes, so the speedup is read
// directly off ns/op. Note Table 2's "cpus" are simulated blades; these
// workers are real host cores — the two axes are independent
// (DESIGN.md §8).
func BenchmarkHostParallel(b *testing.B) {
	const n = 30000
	srcs := treecode.AppendSources(nil, nbody.NewPlummer(n, 1, 2001))
	b.Run("treebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := treecode.Build(srcs, treecode.BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	widths := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		widths = append(widths, g)
	}
	for _, w := range widths {
		forces := hostForceStep(n, w)
		b.Run(fmt.Sprintf("treeforces/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := forces(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("directforces/workers=%d", w), func(b *testing.B) {
			sys := nbody.NewPlummer(n, 1, 2001)
			pool := par.New(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.DirectForcesWith(pool)
			}
		})
	}
}

// hostForceStep returns a treecode force call over an n-particle
// Plummer sphere on the given worker count.
func hostForceStep(n, workers int) func() error {
	sys := nbody.NewPlummer(n, 1, 2001)
	f := &treecode.Forcer{Theta: 0.7, Workers: workers}
	return func() error { return f.Forces(sys) }
}

// BenchmarkCalibrationMemo shows what the process-wide calibration memo
// saves: a cold CalibrateFor simulates every calibration kernel on the
// process pool (cold-1w on one worker); a warm one is a map lookup.
func BenchmarkCalibrationMemo(b *testing.B) {
	tm := cpu.NewTM5600()
	cold := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cpu.ResetCalibCache()
			if _, err := cpu.CalibrateFor(tm, cpu.MissRateTree); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", cold)
	b.Run("cold-1w", func(b *testing.B) {
		par.SetWorkers(1)
		defer par.SetWorkers(0)
		cold(b)
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := cpu.CalibrateFor(tm, cpu.MissRateTree); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cpu.CalibrateFor(tm, cpu.MissRateTree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrusoeEngine measures the raw simulator throughput (host
// side): simulated x86 instructions per host-second under full CMS+VLIW
// simulation.
func BenchmarkCrusoeEngine(b *testing.B) {
	g := kernels.GravMicro{Variant: kernels.GravMath, NBodies: 16, Iters: 100, Seed: 1}
	prog, _, err := g.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		_, st, err := g.Build()
		if err != nil {
			b.Fatal(err)
		}
		m := cms.NewMachine(cms.DefaultParams(), vliw.TM5600Timing())
		_, tr, err := m.Run(prog, st, 0)
		if err != nil {
			b.Fatal(err)
		}
		instrs = tr.Instrs
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}

// BenchmarkMortonKeys measures key-generation throughput (host side).
func BenchmarkMortonKeys(b *testing.B) {
	s := nbody.NewPlummer(10000, 1, 3)
	root, err := treecode.BoundingBox(s.X, s.Y, s.Z)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc treecode.Key
		for j := 0; j < s.N(); j++ {
			acc ^= treecode.MortonKey(s.X[j], s.Y[j], s.Z[j], root)
		}
		if acc == 0xdead {
			b.Fatal("unlikely")
		}
	}
}

// BenchmarkIsaInterp measures the reference interpreter (host side).
func BenchmarkIsaInterp(b *testing.B) {
	g := kernels.GravMicro{Variant: kernels.GravKarp, NBodies: 16, Iters: 50,
		TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 1}
	prog, _, err := g.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := g.Build()
		if err != nil {
			b.Fatal(err)
		}
		if err := isa.Run(prog, st, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions beyond the paper's tables ---

// BenchmarkMPIAllreduce measures the substrate's allreduce hot path:
// one op is a full 8-rank in-place allreduce of 512 float64s on Fast
// Ethernet, allocation-free at steady state because every wire buffer
// comes from the per-rank pools (mpi's TestAllreducePoolStatsExact pins
// the hit counts). Allocations in the rank goroutines count: the
// testing package reads process-wide allocator statistics.
func BenchmarkMPIAllreduce(b *testing.B) {
	b.ReportAllocs()
	w, err := mpi.NewWorld(8, netsim.FastEthernet())
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
	b.ReportMetric(w.MaxTime()/float64(b.N), "sim-seconds/op")
}

// BenchmarkNASSweep runs the p=1..8 parallel NAS rank sweep on a 1-wide
// pool (serially) and at the default width (concurrently); the simulated
// makespans are identical by construction, so the delta is pure host
// wall time.
func BenchmarkNASSweep(b *testing.B) {
	for _, mode := range []struct {
		name  string
		width int
	}{{"serial", 1}, {"concurrent", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			par.SetWorkers(mode.width)
			defer par.SetWorkers(0)
			cfg := nasSweepConfig()
			var sim float64
			for i := 0; i < b.N; i++ {
				rows, _, err := core.NewRun().NASSweep(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sim = 0
				for _, row := range rows {
					sim += row.EPTime + row.ISTime
				}
			}
			b.ReportMetric(sim, "sim-makespan-sum")
		})
	}
}

// nasSweepConfig is the class S rank sweep over p = 1..8.
func nasSweepConfig() core.NASSweepConfig {
	cfg := core.DefaultNASSweepConfig()
	cfg.Ranks = cfg.Ranks[:8]
	return cfg
}

// BenchmarkParallelEP scales the NPB EP kernel across simulated blades
// (embarrassingly parallel: near-ideal speedup even on Fast Ethernet).
func BenchmarkParallelEP(b *testing.B) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateSmall)
	if err != nil {
		b.Fatal(err)
	}
	var t1 float64
	for _, p := range []int{1, 4, 24} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				w, err := mpi.NewWorld(p, netsim.FastEthernet())
				if err != nil {
					b.Fatal(err)
				}
				res, err := nas.ParallelEP(w, nas.ClassS, costs)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatal("parallel EP failed verification")
				}
				sim = res.SimTime
			}
			if p == 1 {
				t1 = sim
			}
			b.ReportMetric(sim, "sim-seconds")
			if t1 > 0 {
				b.ReportMetric(t1/sim, "speedup")
			}
		})
	}
}
