package cpu

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cms"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/par"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// kernelRecorder runs kernels on p and keeps each run's result.
type kernelRecorder struct {
	Processor
	runs []RunResult
}

func (r *kernelRecorder) RunKernel(p isa.Program, st *isa.State) (RunResult, error) {
	res, err := r.Processor.RunKernel(p, st)
	r.runs = append(r.runs, res)
	return res, err
}

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

// calibCase is one (processor, miss rate) pair to pin.
type calibCase struct {
	p        Processor
	missRate float64
}

// calibrate runs c's calibration on the model CalibrateForUncached
// runs, recording each kernel's cycles and cms.Stats.
func (c calibCase) calibrate() (calibPin, error) {
	rec := &kernelRecorder{Processor: calibrationModel(c.p, c.missRate)}
	costs, err := Calibrate(rec)
	if err != nil {
		return calibPin{}, fmt.Errorf("%s at miss rate %v: %w", c.p.Name(), c.missRate, err)
	}
	pin := calibPin{Processor: c.p.Name(), MissRate: c.missRate, Costs: costs}
	ks := kernels.CalibKernels()
	if len(rec.runs) != len(ks) {
		return pin, fmt.Errorf("%s: %d kernel runs, want %d", c.p.Name(), len(rec.runs), len(ks))
	}
	for i, k := range ks {
		pin.Kernels = append(pin.Kernels, calibKernelPin{Kernel: k.Name,
			Cycles: rec.runs[i].Cycles, Stats: rec.runs[i].CMS})
	}
	return pin, nil
}

// checkCalibrationPin calibrates every case, concurrently on the host
// pool, and compares the EffCosts and each calibration kernel's cycles
// (and cms.Stats) with testdata/file; -update-golden rewrites the file
// instead.
func checkCalibrationPin(t *testing.T, file string, cases []calibCase) {
	t.Helper()
	got := make([]calibPin, len(cases))
	errs := make([]error, len(cases))
	tasks := make([]func(), len(cases))
	for i, c := range cases {
		tasks[i] = func() { got[i], errs[i] = c.calibrate() }
	}
	par.Default().Do(tasks...)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
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

// TestCrusoeCalibrationPinned pins, bit for bit, the EffCosts of the
// TM5600 and the TM5800 at each workload miss rate, together with every
// calibration kernel's cycles and cms.Stats. A change to CMS, the
// translator or VLIW timing that moves any calibrated cost shows as a
// diff of testdata/crusoe_calib_pin.json.
func TestCrusoeCalibrationPinned(t *testing.T) {
	var cases []calibCase
	for _, c := range []*Crusoe{NewTM5600(), NewTM5800()} {
		for _, mr := range []float64{MissRateSmall, MissRateTree, MissRateClassW} {
			cases = append(cases, calibCase{c, mr})
		}
	}
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
			cases = append(cases, calibCase{p, MissRateClassW})
		}
	}
	for _, a := range table4Superscalars() {
		cases = append(cases, calibCase{a.AsProcessor(), MissRateTree})
	}
	checkCalibrationPin(t, "superscalar_calib_pin.json", cases)
}
