package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/vliw"
)

// EffCosts is the coarse op-mix cost model: effective cycles per operation
// per timing class, calibrated by running per-class kernels through a
// processor's full model (trace-driven superscalar for hardware CPUs, the
// CMS+VLIW simulation for the Crusoe). Large workloads that are
// implemented natively in Go (NAS kernels, the treecode) count their
// operations and are timed through this model.
type EffCosts struct {
	Processor string
	ClockMHz  float64
	Cost      [isa.NumClasses]float64
}

// CalibIters is the iteration count used for calibration loops; large
// enough that the Crusoe's one-time translation cost (thousands of cycles
// per region) amortizes to noise, as it does over a real benchmark's
// billions of iterations.
const CalibIters = 200_000

// Calibrate measures the effective per-class costs of a processor. Its
// kernels run concurrently on the process pool, so p's RunKernel must
// be safe for concurrent use. Each kernel runs on its own state and
// writes only its own class's cost, so no cost depends on the pool's
// width; if kernels fail, the error is the first failing kernel's in
// kernel order.
func Calibrate(p Processor) (EffCosts, error) {
	costs, _, err := calibrateKernels(p)
	return costs[0], err
}

// calibrateKernels is Calibrate for each of models, also returning each
// model's calibration kernel runs in kernel order. The models are one
// processor's (calibrationModels): Crusoes that differ in their Timing
// alone run each kernel once through CMS, priced under every model's
// Timing (Crusoe.runPriced); any other model runs each kernel itself.
func calibrateKernels(models ...Processor) ([]EffCosts, [][]RunResult, error) {
	ks := kernels.CalibKernels()
	run := kernelRunner(models)
	runs := make([][]RunResult, len(ks)) // runs[i][j]: kernel i on models[j]
	errs := make([]error, len(ks))
	// Grain 1: each chunk is one kernel, i.
	par.Default().For(len(ks), 1, func(i, _ int) {
		if runs[i], errs[i] = run(ks[i]); errs[i] != nil {
			errs[i] = fmt.Errorf("cpu: calibrate %s/%s: %w", models[0].Name(), ks[i].Name, errs[i])
		}
	})
	costs := make([]EffCosts, len(models))
	byModel := make([][]RunResult, len(models))
	for _, err := range errs {
		if err != nil {
			return costs, byModel, err
		}
	}
	for j, p := range models {
		e := &costs[j]
		e.Processor, e.ClockMHz = p.Name(), p.ClockMHz()
		for i, k := range ks {
			byModel[j] = append(byModel[j], runs[i][j])
			e.Cost[k.Class] = runs[i][j].Cycles / float64(CalibIters*k.OpsPerIteration())
		}
		// Branches and nops ride along inside the calibration loop
		// bodies; charge branches like simple ALU ops and nops free.
		e.Cost[isa.ClassBranch] = e.Cost[isa.ClassIntALU]
		e.Cost[isa.ClassNop] = 0
	}
	return costs, byModel, nil
}

// kernelRunner returns what runs one calibration kernel on every model:
// one CMS run priced under each model's Timing when the models are
// Crusoes, and a run of its own per model otherwise.
func kernelRunner(models []Processor) func(kernels.CalibKernel) ([]RunResult, error) {
	if c, ok := models[0].(*Crusoe); ok {
		ts := make([]vliw.Timing, len(models))
		for j, m := range models {
			ts[j] = m.(*Crusoe).Timing
		}
		return func(k kernels.CalibKernel) ([]RunResult, error) {
			prog, st, err := k.Build(CalibIters)
			if err != nil {
				return nil, err
			}
			return c.runPriced(prog, st, ts)
		}
	}
	return func(k kernels.CalibKernel) ([]RunResult, error) {
		runs := make([]RunResult, len(models))
		for j, p := range models {
			prog, st, err := k.Build(CalibIters)
			if err == nil {
				runs[j], err = p.RunKernel(prog, st)
			}
			if err != nil {
				return nil, err
			}
		}
		return runs, nil
	}
}

// Cycles returns the modelled cycle count for an operation mix.
func (e EffCosts) Cycles(mix *isa.Trace) float64 {
	total := 0.0
	for c, n := range mix.ByClass {
		total += float64(n) * e.Cost[c]
	}
	return total
}

// Seconds converts a mix to wall-clock at the calibrated clock.
func (e EffCosts) Seconds(mix *isa.Trace) float64 {
	return e.Cycles(mix) / (e.ClockMHz * 1e6)
}

// Mflops rates a mix: counted flops over modelled time.
func (e EffCosts) Mflops(mix *isa.Trace) float64 {
	s := e.Seconds(mix)
	if s <= 0 {
		return 0
	}
	return float64(mix.Flops) / s / 1e6
}

// Mops rates a mix the way the NAS Parallel Benchmarks report: millions
// of benchmark operations per second, where ops is the benchmark's own
// nominal operation count.
func (e EffCosts) Mops(ops float64, mix *isa.Trace) float64 {
	s := e.Seconds(mix)
	if s <= 0 {
		return 0
	}
	return ops / s / 1e6
}

// CalibrateForUncached calibrates with a workload-specific expected
// cache-miss rate on loads — large working sets (NPB Class W grids,
// treecode bodies) miss far more than the tiny calibration arena. For
// hardware models the arch's LoadMissRate is replaced; for the Crusoe
// the flat VLIW load latency is raised by the expected miss cost (its
// on-die L2 kept the penalty modest).
//
// Every call re-runs the full per-class kernel simulations; most callers
// want the memoized CalibrateFor, keeping this as the explicit bypass
// for ablations that must observe a fresh simulation.
func CalibrateForUncached(p Processor, missRate float64) (EffCosts, error) {
	return Calibrate(calibrationModel(p, missRate))
}

// calibrationModels returns calibrationModel(p, r) for each r in
// missRates.
func calibrationModels(p Processor, missRates ...float64) []Processor {
	models := make([]Processor, len(missRates))
	for i, r := range missRates {
		models[i] = calibrationModel(p, r)
	}
	return models
}

// calibrationModel returns the model CalibrateForUncached runs: p with
// its load cost set for missRate.
func calibrationModel(p Processor, missRate float64) Processor {
	switch pr := p.(type) {
	case archProcessor:
		a := *pr.a
		scale := a.MissScale
		if scale == 0 {
			scale = 1
		}
		a.LoadMissRate = missRate * scale
		if a.LoadMissRate > 1 {
			a.LoadMissRate = 1
		}
		return a.AsProcessor()
	case *Crusoe:
		// A copy of the model without its Tracer: the calibration
		// kernels are not part of the caller's traced experiment.
		c := *pr
		c.Tracer = nil
		c.Timing.LoadLatency += int(missRate*10 + 0.5)
		return &c
	default:
		return p
	}
}

// Workload-class miss rates used by the experiment drivers.
const (
	// MissRateSmall suits cache-resident kernels (the microbenchmarks).
	MissRateSmall = 0.01
	// MissRateTree suits the treecode's pointer-walking working sets.
	MissRateTree = 0.04
	// MissRateClassW suits NPB Class W grids (several MB per array).
	MissRateClassW = 0.09
)
