package cpu

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cms"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/vliw"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// calibKernelPin is one calibration kernel's simulated outcome; Stats
// is set for a Crusoe only.
type calibKernelPin struct {
	Kernel string
	Cycles float64
	Stats  *cms.Stats `json:",omitempty"`
}

// calibPin is one (processor, miss rate) calibration, bit for bit.
type calibPin struct {
	Processor string
	MissRate  float64
	Costs     EffCosts
	Kernels   []calibKernelPin
}

// calibCase is a processor and the miss rates one calibration run
// covers, as CalibrateFor's memo fills them together.
type calibCase struct {
	p         Processor
	missRates []float64
}

// calibrate runs c's calibration on the models CalibrateFor runs,
// recording per miss rate each kernel's cycles and cms.Stats.
func (c calibCase) calibrate() ([]calibPin, error) {
	costs, runs, err := calibrateKernels(calibrationModels(c.p, c.missRates...)...)
	if err != nil {
		return nil, fmt.Errorf("%s at miss rates %v: %w", c.p.Name(), c.missRates, err)
	}
	pins := make([]calibPin, len(c.missRates))
	for j, mr := range c.missRates {
		pins[j] = calibPin{Processor: c.p.Name(), MissRate: mr, Costs: costs[j]}
		for i, k := range kernels.CalibKernels() {
			pins[j].Kernels = append(pins[j].Kernels, calibKernelPin{Kernel: k.Name,
				Cycles: runs[j][i].Cycles, Stats: runs[j][i].CMS})
		}
	}
	return pins, nil
}

// checkCalibrationPin calibrates every case, concurrently on the host
// pool, and compares the EffCosts and each calibration kernel's cycles
// (and cms.Stats) with testdata/file; -update-golden rewrites the file
// instead.
func checkCalibrationPin(t *testing.T, file string, cases []calibCase) {
	t.Helper()
	pins := make([][]calibPin, len(cases))
	errs := make([]error, len(cases))
	tasks := make([]func(), len(cases))
	for i, c := range cases {
		tasks[i] = func() { pins[i], errs[i] = c.calibrate() }
	}
	par.Default().Do(tasks...)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var got []calibPin
	for _, p := range pins {
		got = append(got, p...)
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/cpu -run %s -update-golden to create)", err, t.Name())
	}
	if string(b) != string(want) {
		t.Fatalf("calibration pin %s mismatch:\n--- got ---\n%s\n--- want ---\n%s", file, b, want)
	}
}

// workloadRates are the workload miss rates, in the order the pins
// list them.
var workloadRates = []float64{MissRateSmall, MissRateTree, MissRateClassW}

// TestCrusoeCalibrationPinned pins, bit for bit, the EffCosts of the
// TM5600 and the TM5800 at each workload miss rate, together with every
// calibration kernel's cycles and cms.Stats. Each model's three rates
// come from one shared run per kernel, priced under each rate's load
// latency, as CalibrateFor fills them. A change to CMS, the translator,
// VLIW timing or the pricing that moves any calibrated cost shows as a
// diff of testdata/crusoe_calib_pin.json.
func TestCrusoeCalibrationPinned(t *testing.T) {
	cases := []calibCase{{NewTM5600(), workloadRates}, {NewTM5800(), workloadRates}}
	checkCalibrationPin(t, "crusoe_calib_pin.json", cases)
}

// table4Superscalars are the hardware models of Table 4's machine
// registry (core.Registry), each calibrated at MissRateTree.
func table4Superscalars() []*Arch {
	return []*Arch{R10000_250(), AlphaEV56_533(), PentiumPro200(), Power2_66(),
		PentiumII333(), SuperSPARC40(), Alpha21064_150()}
}

// TestSuperscalarCalibrationPinned pins, bit for bit, the EffCosts and
// every calibration kernel's cycles of each superscalar model the paper
// tables calibrate: Table 3's (the hardware models of NASCPUs) at
// MissRateClassW and Table 4's at MissRateTree. A change to the
// superscalar timing model that moves any calibrated cost shows as a
// diff of testdata/superscalar_calib_pin.json.
func TestSuperscalarCalibrationPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: the calibration pins run without the detector in their own CI step")
	}
	var cases []calibCase
	for _, p := range NASCPUs() {
		if _, ok := p.(archProcessor); ok {
			cases = append(cases, calibCase{p, []float64{MissRateClassW}})
		}
	}
	for _, a := range table4Superscalars() {
		cases = append(cases, calibCase{a.AsProcessor(), []float64{MissRateTree}})
	}
	checkCalibrationPin(t, "superscalar_calib_pin.json", cases)
}

// sameRun reports whether two kernel runs agree bit for bit: cycles,
// seconds, trace and cms.Stats.
func sameRun(a, b RunResult) bool {
	return math.Float64bits(a.Cycles) == math.Float64bits(b.Cycles) &&
		math.Float64bits(a.Seconds) == math.Float64bits(b.Seconds) &&
		a.Trace == b.Trace &&
		(a.CMS == nil) == (b.CMS == nil) && (a.CMS == nil || *a.CMS == *b.CMS)
}

// sameCosts reports whether two EffCosts agree bit for bit.
func sameCosts(a, b EffCosts) bool {
	if a.Processor != b.Processor || math.Float64bits(a.ClockMHz) != math.Float64bits(b.ClockMHz) {
		return false
	}
	for c := range a.Cost {
		if math.Float64bits(a.Cost[c]) != math.Float64bits(b.Cost[c]) {
			return false
		}
	}
	return true
}

// TestCalibrateWidthInvariant: Calibrate runs its kernels on the
// process pool, and its costs and every kernel's run have the same bits
// at pool widths 1, 2 and 8, for the TM5600 at the three workload miss
// rates of one shared run and for a superscalar model (which skips
// under -race, as its pin does).
func TestCalibrateWidthInvariant(t *testing.T) {
	cases := []calibCase{{NewTM5600(), workloadRates}}
	if !raceEnabled {
		cases = append(cases, calibCase{PentiumII333().AsProcessor(), []float64{MissRateTree}})
	}
	defer par.SetWorkers(0)
	for _, c := range cases {
		models := calibrationModels(c.p, c.missRates...)
		var want []EffCosts
		var wantRuns [][]RunResult
		for _, w := range []int{1, 2, 8} {
			par.SetWorkers(w)
			costs, runs, err := calibrateKernels(models...)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", c.p.Name(), w, err)
			}
			if w == 1 {
				want, wantRuns = costs, runs
				continue
			}
			for j, mr := range c.missRates {
				if !sameCosts(costs[j], want[j]) {
					t.Fatalf("%s at %v: costs at %d workers\n%+v\nat 1 worker\n%+v", c.p.Name(), mr, w, costs[j], want[j])
				}
				for i, k := range kernels.CalibKernels() {
					if !sameRun(runs[j][i], wantRuns[j][i]) {
						t.Fatalf("%s/%s at %v: run at %d workers differs from the run at 1 worker", c.p.Name(), k.Name, mr, w)
					}
				}
			}
		}
	}
}

// TestPricedKernelRunsMatchSeparateRuns: one CMS run of each
// calibration kernel, priced under several Timings, gives for each
// Timing the cycles, seconds, Trace and every cms.Stats field of a
// separate run under it, for the TM5600 and the TM5800 at each workload
// miss rate's load latency and under a Timing that differs in every
// field. The kernels run 5000 iterations, past every translation.
func TestPricedKernelRunsMatchSeparateRuns(t *testing.T) {
	const iters = 5000
	for _, c := range []*Crusoe{NewTM5600(), NewTM5800()} {
		var ts []vliw.Timing
		for _, m := range calibrationModels(c, workloadRates...) {
			ts = append(ts, m.(*Crusoe).Timing)
		}
		ts = append(ts, vliw.Timing{IntLatency: 2, MulLatency: 5, LoadLatency: 4, FPLatency: 3,
			FDivLatency: 31, FSqrtLatency: 17, BranchPenalty: 3})
		for _, k := range kernels.CalibKernels() {
			prog, st, err := k.Build(iters)
			if err != nil {
				t.Fatal(err)
			}
			runs, err := c.runPriced(prog, st, ts)
			if err != nil {
				t.Fatal(err)
			}
			for i, tm := range ts {
				sep := *c
				sep.Timing = tm
				prog, st, _ := k.Build(iters)
				want, err := sep.RunKernel(prog, st)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRun(runs[i], want) {
					t.Fatalf("%s/%s under %+v: priced\n%+v %+v\nseparate\n%+v %+v", c.Name(), k.Name, tm,
						runs[i], *runs[i].CMS, want, *want.CMS)
				}
			}
		}
	}
}
