package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/tco"
	"repro/internal/treecode"
)

// --- Table 1: gravitational microkernel Mflops ---

// Table1Row is one processor's pair of ratings.
type Table1Row struct {
	Processor  string
	MathMflops float64
	KarpMflops float64
}

// Table1 runs the microkernel (both reciprocal-square-root variants) on
// the five evaluation processors: trace-driven superscalar models for the
// hardware CPUs, the full CMS+VLIW simulation for the TM5600. The ten
// runs are independent tasks on the process pool; a serial post-pass
// folds them in processor order. The run's snapshot collects the CMS
// pipeline counters of the Crusoe executions and a per-processor rating
// gauge; the tracer (if any) sees the CMS interpret→translate→cache
// spans plus a host span per run, named for its processor.
func (r *Run) Table1() ([]Table1Row, *metrics.Table, error) {
	procs := cpu.EvaluationCPUs()
	variants := []kernels.GravVariant{kernels.GravMath, kernels.GravKarp}
	type run struct {
		res cpu.RunResult
		err error
	}
	runs := make([]run, len(procs)*len(variants))
	for _, p := range procs {
		if c, ok := p.(*cpu.Crusoe); ok {
			c.Tracer = r.Tracer
		}
	}
	sweepWorlds(len(runs), func(i int) {
		p, o := procs[i/len(variants)], &runs[i]
		sp := r.Tracer.Begin(obs.PidHost, 0, "table1", p.Name())
		prog, st, err := kernels.DefaultGravMicro(variants[i%len(variants)]).Build()
		if o.err = err; err == nil {
			o.res, o.err = p.RunKernel(prog, st)
		}
		sp.End(map[string]any{"mflops": o.res.Mflops()})
	})

	var rows []Table1Row
	for pi, p := range procs {
		row := Table1Row{Processor: p.Name()}
		for vi, variant := range variants {
			o := runs[pi*len(variants)+vi]
			if o.err != nil {
				return nil, nil, o.err
			}
			if o.res.CMS != nil {
				r.gather(o.res.CMS)
			}
			if variant == kernels.GravMath {
				row.MathMflops = o.res.Mflops()
			} else {
				row.KarpMflops = o.res.Mflops()
			}
		}
		name := obs.SanitizeName(p.Name())
		r.Snap.SetGauge("table1."+name+".math_mflops", "Mflops", row.MathMflops)
		r.Snap.SetGauge("table1."+name+".karp_mflops", "Mflops", row.KarpMflops)
		rows = append(rows, row)
	}
	t := metrics.NewTable("Table 1: Mflops on the gravitational microkernel",
		"Processor", "Math sqrt", "Karp sqrt")
	for _, r := range rows {
		t.AddRowf("%.1f", r.Processor, r.MathMflops, r.KarpMflops)
	}
	return rows, t, nil
}

// --- Table 2: N-body scalability on MetaBlade ---

// Table2Row is one CPU-count measurement.
type Table2Row struct {
	CPUs    int
	TimeSec float64
	Speedup float64
}

// Table2Config sizes the scalability run.
type Table2Config struct {
	Particles int
	CPUCounts []int
	Theta     float64
	// Fabric names the interconnect topology (see NASSweepConfig.Fabric).
	Fabric string
}

// DefaultTable2Config mirrors the paper's sweep of the 24-blade chassis.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		Particles: 60000,
		CPUCounts: []int{1, 2, 4, 8, 16, 24},
		Theta:     0.7,
	}
}

// Table2 prices the tree N-body force step on 1..24 simulated blades:
// real parallel execution over the mpi substrate — decomposition, tree
// builds, LET exchange and walks — with compute time from the TM5600's
// calibrated costs over the counted interactions and communication from
// the 100 Mb/s Fast Ethernet model. The table reads no acceleration, so
// the worlds run treecode.ParallelCost, which counts every interaction
// list instead of evaluating it, and share one read-only Plummer
// system. Each world's communication totals and each sweep's
// interaction counts land in the run's snapshot; the tracer records
// per-rank virtual-time phases (obs.PidSim) for every world and one host
// span for the whole sweep.
func (r *Run) Table2(cfg Table2Config) ([]Table2Row, *metrics.Table, error) {
	if cfg.Particles <= 0 || len(cfg.CPUCounts) == 0 {
		return nil, nil, fmt.Errorf("core: empty Table2 config")
	}
	cm, err := tm5600TreeCost()
	if err != nil {
		return nil, nil, err
	}
	type t2out struct {
		w   *mpi.World
		res *treecode.ParallelResult
		err error
	}
	outs := make([]t2out, len(cfg.CPUCounts))
	s := nbody.NewPlummer(cfg.Particles, 1, 2001)
	runOne := func(i int) {
		o := &outs[i]
		w, err := r.newWorld(cfg.CPUCounts[i], cfg.Fabric)
		if err != nil {
			o.err = err
			return
		}
		o.w = w
		o.res, o.err = treecode.ParallelCost(w, s, treecode.ParallelConfig{
			Theta: cfg.Theta, Eps: s.Eps, Cost: cm,
		})
	}
	sp := r.Tracer.Begin(obs.PidHost, 0, "table2", "sweep")
	sweepWorlds(len(cfg.CPUCounts), runOne)
	sp.End(nil)
	// Deterministic post-pass in CPU-count order, independent of the
	// workers' completion order.
	for i := range outs {
		if outs[i].err != nil {
			return nil, nil, outs[i].err
		}
	}
	t1 := serialTime(cfg.CPUCounts, func(i int) float64 { return outs[i].res.SimTime })
	var rows []Table2Row
	for i, p := range cfg.CPUCounts {
		o := &outs[i]
		res := o.res
		row := Table2Row{
			CPUs:    p,
			TimeSec: res.SimTime,
			Speedup: metrics.Speedup(t1, res.SimTime),
		}
		r.gather(o.w, res)
		r.Snap.SetGauge(fmt.Sprintf("table2.p%02d.time", p), "s", row.TimeSec)
		r.Snap.SetGauge(fmt.Sprintf("table2.p%02d.speedup", p), "", row.Speedup)
		rows = append(rows, row)
	}
	t := metrics.NewTable("Table 2: scalability of the N-body simulation on MetaBlade",
		"# CPUs", "Time (sec)", "Speed-Up")
	for _, r := range rows {
		t.AddRowf("%.2f", fmt.Sprintf("%d", r.CPUs), r.TimeSec, r.Speedup)
	}
	return rows, t, nil
}

// tm5600TreeCost is the treecode cost model of one TM5600 blade: its
// calibrated op costs, at the tree walk's miss rate, priced over the
// interaction and build op mixes.
func tm5600TreeCost() (treecode.CostModel, error) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateTree)
	if err != nil {
		return treecode.CostModel{}, err
	}
	return treecode.CostModel{
		SecondsPerInteraction: costs.Seconds(treecode.InteractionMix()),
		SecondsPerBuildSource: costs.Seconds(treecode.BuildMix()),
	}, nil
}

// --- Table 3: NPB 2.3 single-processor Mops ---

// Table3Data holds the kernel × processor grid.
type Table3Data struct {
	Kernels    []string
	Processors []string
	Mops       [][]float64 // [kernel][processor]
	Verified   []bool
}

// Table3 runs the six NPB kernels at the given class and rates them on
// the four Table 3 processors through calibrated op-mix models. The
// four calibrations, then the six kernel runs, are independent tasks on
// the process pool; a serial post-pass folds the kernels in row order.
// Each kernel×processor rating lands in the snapshot as a gauge; a host
// span per kernel covers its execution.
func (r *Run) Table3(class nas.Class) (*Table3Data, *metrics.Table, error) {
	procs := cpu.NASCPUs()
	costs := make([]cpu.EffCosts, len(procs))
	errs := make([]error, len(procs))
	sweepWorlds(len(procs), func(i int) {
		costs[i], errs[i] = cpu.CalibrateFor(procs[i], cpu.MissRateClassW)
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	kernels := nas.Table3Kernels()
	results := make([]*nas.Result, len(kernels))
	errs = make([]error, len(kernels))
	sweepWorlds(len(kernels), func(i int) {
		sp := r.Tracer.Begin(obs.PidHost, 0, "table3", kernels[i].Name())
		kr, err := kernels[i].Run(class)
		if results[i], errs[i] = kr, err; err == nil {
			sp.End(map[string]any{"ops": kr.Ops, "verified": kr.Verified})
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	data := &Table3Data{}
	for _, p := range procs {
		data.Processors = append(data.Processors, p.Name())
	}
	t := metrics.NewTable(
		fmt.Sprintf("Table 3: single-processor performance (Mops) for class %s NPB 2.3", class),
		"Code", "Athlon MP", "Pentium 3", "TM5600", "Power3")
	for ki, k := range kernels {
		kr := results[ki]
		var row []float64
		kname := obs.SanitizeName(k.Name())
		for i, p := range procs {
			m := costs[i].Mops(kr.Ops, &kr.Mix)
			row = append(row, m)
			r.Snap.SetGauge("table3."+kname+"."+obs.SanitizeName(p.Name())+".mops", "Mops", m)
		}
		data.Kernels = append(data.Kernels, k.Name())
		data.Mops = append(data.Mops, row)
		data.Verified = append(data.Verified, kr.Verified)
		t.AddRowf("%.1f", k.Name(), row[0], row[1], row[2], row[3])
	}
	return data, t, nil
}

// --- Table 4: historical treecode performance ---

// Table4Row is one machine's rating.
type Table4Row struct {
	Machine      string
	Procs        int
	Gflop        float64
	MflopPerProc float64
}

// Table4Particles sizes the treecode run used for the per-processor
// rating.
const Table4Particles = 20000

// Table4 rates every registry machine on the treecode, recording one
// rating gauge per machine.
func (r *Run) Table4() ([]Table4Row, *metrics.Table, error) {
	machines, err := Registry()
	if err != nil {
		return nil, nil, err
	}
	// One treecode step's counts, priced once per distinct CPU; the
	// pricings (calibrations) run concurrently.
	work, err := measureTreecode(Table4Particles)
	if err != nil {
		return nil, nil, err
	}
	cpuIndex := map[string]int{}
	var cpus []cpu.Processor
	for _, m := range machines {
		if _, ok := cpuIndex[m.CPU.Name()]; !ok {
			cpuIndex[m.CPU.Name()] = len(cpus)
			cpus = append(cpus, m.CPU)
		}
	}
	rates := make([]float64, len(cpus))
	errs := make([]error, len(cpus))
	sweepWorlds(len(cpus), func(i int) {
		rates[i], errs[i] = work.rate(cpus[i])
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	var rows []Table4Row
	for _, m := range machines {
		perProc := rates[cpuIndex[m.CPU.Name()]] * m.ParallelEff
		row := Table4Row{
			Machine:      m.Name,
			Procs:        m.Procs,
			Gflop:        perProc * float64(m.Procs) / 1000,
			MflopPerProc: perProc,
		}
		mname := obs.SanitizeName(m.Name)
		r.Snap.SetGauge("table4."+mname+".gflop", "Gflop", row.Gflop)
		r.Snap.SetGauge("table4."+mname+".mflop_per_proc", "Mflops", row.MflopPerProc)
		rows = append(rows, row)
	}
	t := metrics.NewTable("Table 4: historical treecode performance",
		"Machine", "CPUs", "Gflop", "Mflop/proc")
	for _, r := range rows {
		t.AddRowf("%.1f", r.Machine, fmt.Sprintf("%d", r.Procs), r.Gflop, r.MflopPerProc)
	}
	return rows, t, nil
}

// --- Table 5: total cost of ownership ---

// Table5Row is one cluster's cost breakdown.
type Table5Row struct {
	Name string
	B    tco.Breakdown
}

// Table5 evaluates the paper's five 24-node clusters under the paper's
// rates, recording acquisition and TCO gauges per cluster.
func (r *Run) Table5() ([]Table5Row, *metrics.Table, error) {
	cfgs, err := tco.PaperTable5Configs()
	if err != nil {
		return nil, nil, err
	}
	rates := tco.PaperRates()
	var rows []Table5Row
	t := metrics.NewTable("Table 5: total cost of ownership for a 24-node cluster over four years ($K)",
		"Cost Parameter", "Alpha", "Athlon", "PIII", "P4", "TM5600")
	cells := make(map[string][]float64)
	order := []string{"Acquisition", "System Admin", "Power & Cooling", "Space", "Downtime", "TCO"}
	for _, cfg := range cfgs {
		b, err := tco.Compute(cfg, rates)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table5Row{Name: cfg.Name, B: b})
		cname := obs.SanitizeName(cfg.Name)
		r.Snap.SetGauge("table5."+cname+".acquisition", "$", b.Acquisition)
		// The four-year total cost of ownership.
		r.Snap.SetGauge("table5."+cname+".tco", "$", b.TCO())
		cells["Acquisition"] = append(cells["Acquisition"], b.Acquisition)
		cells["System Admin"] = append(cells["System Admin"], b.SysAdmin)
		cells["Power & Cooling"] = append(cells["Power & Cooling"], b.PowerCooling)
		cells["Space"] = append(cells["Space"], b.Space)
		cells["Downtime"] = append(cells["Downtime"], b.Downtime)
		cells["TCO"] = append(cells["TCO"], b.TCO())
	}
	for _, name := range order {
		args := []any{name}
		for _, v := range cells[name] {
			args = append(args, v/1000)
		}
		t.AddRowf("$%.1fK", args...)
	}
	return rows, t, nil
}

// ToPPeRSummary compares ToPPeR and plain price/performance for the blade
// versus a traditional cluster, per §4.1: blade performance is 75% of a
// comparably clocked traditional Beowulf, TCO three times lower.
type ToPPeRSummary struct {
	TradToPPeR, BladeToPPeR         float64 // $/Mflops over TCO
	TradPricePerf, BladePricePerf   float64 // $/Mflops over acquisition
	ToPPeRAdvantage, PricePerfRatio float64
}

// ToPPeR computes the §4.1 comparison using the PIII cluster as the
// comparably clocked traditional Beowulf and measured treecode rates.
func (r *Run) ToPPeR() (*ToPPeRSummary, error) {
	rows, _, err := r.Table5()
	if err != nil {
		return nil, err
	}
	byName := map[string]tco.Breakdown{}
	for _, row := range rows {
		byName[row.Name] = row.B
	}
	work, err := measureTreecode(Table4Particles)
	if err != nil {
		return nil, err
	}
	tradRate, err := work.rate(cpu.PentiumIII500().AsProcessor())
	if err != nil {
		return nil, err
	}
	bladeRate, err := work.rate(cpu.NewTM5600())
	if err != nil {
		return nil, err
	}
	tradGflop := tradRate * 24 * 0.8 / 1000
	bladeGflop := bladeRate * 24 * 0.8 / 1000
	s := &ToPPeRSummary{
		TradToPPeR:     tco.ToPPeR(byName["PIII"].TCO(), tradGflop),
		BladeToPPeR:    tco.ToPPeR(byName["TM5600"].TCO(), bladeGflop),
		TradPricePerf:  tco.PricePerf(byName["PIII"].Acquisition, tradGflop),
		BladePricePerf: tco.PricePerf(byName["TM5600"].Acquisition, bladeGflop),
	}
	s.ToPPeRAdvantage = s.TradToPPeR / s.BladeToPPeR
	s.PricePerfRatio = s.BladePricePerf / s.TradPricePerf
	// $/Mflops over the TCO, traditional Beowulf and blade.
	r.Snap.SetGauge("topper.trad", "$/Mflops", s.TradToPPeR)
	r.Snap.SetGauge("topper.blade", "$/Mflops", s.BladeToPPeR)
	r.Snap.SetGauge("topper.advantage", "", s.ToPPeRAdvantage)
	r.Snap.SetGauge("topper.priceperf_ratio", "", s.PricePerfRatio)
	return s, nil
}

// --- Tables 6 and 7: performance/space and performance/power ---

// SpacePowerRow is one machine's entry in Tables 6/7.
type SpacePowerRow struct {
	Machine   string
	Gflop     float64
	AreaSqFt  float64
	PowerKW   float64
	PerfSpace float64 // Mflop/ft²
	PerfPower float64 // Gflop/kW
}

// SpacePower builds the Avalon / MetaBlade / Green Destiny comparison of
// Tables 6 and 7 from measured treecode rates and the physical cluster
// models, recording density gauges per machine.
func (r *Run) SpacePower() ([]SpacePowerRow, *metrics.Table, *metrics.Table, error) {
	avalonC, err := cluster.New("Avalon", cluster.NodeAlpha, avalonPackaging(), 128, 24)
	if err != nil {
		return nil, nil, nil, err
	}
	mbC, err := cluster.New("MetaBlade", cluster.NodeTM5600, cluster.BladePackaging(), 24, 27)
	if err != nil {
		return nil, nil, nil, err
	}
	gdC, err := cluster.New("Green Destiny", cluster.NodeTM5800, cluster.BladePackaging(), 240, 27)
	if err != nil {
		return nil, nil, nil, err
	}
	work, err := measureTreecode(Table4Particles)
	if err != nil {
		return nil, nil, nil, err
	}
	alphaRate, err := work.rate(cpu.AlphaEV56_533().AsProcessor())
	if err != nil {
		return nil, nil, nil, err
	}
	tm56Rate, err := work.rate(cpu.NewTM5600())
	if err != nil {
		return nil, nil, nil, err
	}
	tm58Rate, err := work.rate(cpu.NewTM5800())
	if err != nil {
		return nil, nil, nil, err
	}
	mk := func(name string, rate float64, procs int, eff float64, c *cluster.Cluster) SpacePowerRow {
		g := rate * eff * float64(procs) / 1000
		return SpacePowerRow{
			Machine:   name,
			Gflop:     g,
			AreaSqFt:  c.FootprintSqFt(),
			PowerKW:   c.TotalPowerKW(),
			PerfSpace: tco.PerfPerSpace(g, c.FootprintSqFt()),
			PerfPower: tco.PerfPerPower(g, c.TotalPowerKW()),
		}
	}
	rows := []SpacePowerRow{
		mk("Avalon", alphaRate, 128, 0.75, avalonC),
		mk("MetaBlade", tm56Rate, 24, 0.78, mbC),
		mk("Green Destiny", tm58Rate, 240, 0.78, gdC),
	}
	for _, row := range rows {
		mname := obs.SanitizeName(row.Machine)
		r.Snap.SetGauge("table6."+mname+".perf_space", "Mflop/ft2", row.PerfSpace)
		r.Snap.SetGauge("table7."+mname+".perf_power", "Gflop/kW", row.PerfPower)
	}
	t6 := metrics.NewTable("Table 6: performance/space, traditional vs bladed Beowulfs",
		"Machine", "Performance (Gflop)", "Area (ft^2)", "Perf/Space (Mflop/ft^2)")
	t7 := metrics.NewTable("Table 7: performance/power, traditional vs bladed Beowulfs",
		"Machine", "Performance (Gflop)", "Power (kW)", "Perf/Power (Gflop/kW)")
	for _, r := range rows {
		t6.AddRowf("%.1f", r.Machine, r.Gflop, r.AreaSqFt, r.PerfSpace)
		t7.AddRowf("%.2f", r.Machine, r.Gflop, r.PowerKW, r.PerfPower)
	}
	return rows, t6, t7, nil
}

// --- Figure 3: density rendering of an N-body run ---

// Figure3Config sizes the simulation behind the rendering.
type Figure3Config struct {
	Particles int
	Steps     int
	Width     int
	Height    int
}

// DefaultFigure3Config is sized for a quick run; the sc01demo example
// scales it up.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{Particles: 20000, Steps: 10, Width: 72, Height: 36}
}

// Figure3 runs a self-gravitating collapse with the treecode and renders
// the projected density — the reproduction of the paper's Figure 3 image.
// The forcer's interaction totals accumulate into the snapshot's
// treecode.* counters, on top of any earlier experiment's; the tracer
// (if any) sees the per-step build/forces host spans.
func (r *Run) Figure3(cfg Figure3Config) (*nbody.DensityImage, *nbody.System, error) {
	if cfg.Particles <= 0 || cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, nil, fmt.Errorf("core: bad Figure3 config")
	}
	s := nbody.NewPlummer(cfg.Particles, 1, 42)
	// Cool the velocities so structure collapses visibly.
	for i := range s.VX {
		s.VX[i] *= 0.3
		s.VY[i] *= 0.3
		s.VZ[i] *= 0.3
	}
	f := &treecode.Forcer{Theta: 0.7, Tracer: r.Tracer}
	if cfg.Steps > 0 {
		if err := s.Leapfrog(f, 0.01, cfg.Steps); err != nil {
			return nil, nil, err
		}
	}
	img, err := nbody.RenderAuto(s, cfg.Width, cfg.Height)
	if err != nil {
		return nil, nil, err
	}
	r.gather(f.Total)
	r.Snap.SetGauge("figure3.particles", "", float64(cfg.Particles))
	r.Snap.SetGauge("figure3.steps", "", float64(cfg.Steps))
	return img, s, nil
}
