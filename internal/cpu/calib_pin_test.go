package cpu

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cms"
	"repro/internal/isa"
	"repro/internal/kernels"
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

// calibKernelPin is one calibration kernel's simulated outcome.
type calibKernelPin struct {
	Kernel string
	Cycles float64
	Stats  cms.Stats
}

// crusoeCalibPin is one (Crusoe, miss rate) calibration, bit for bit.
type crusoeCalibPin struct {
	Processor string
	MissRate  float64
	Costs     EffCosts
	Kernels   []calibKernelPin
}

// TestCrusoeCalibrationPinned pins, bit for bit, the EffCosts of the
// TM5600 and the TM5800 at each workload miss rate, together with every
// calibration kernel's cycles and cms.Stats. The costs come from the
// model CalibrateForUncached runs, so a change to CMS, the translator or
// VLIW timing that moves any calibrated cost shows as a diff of
// testdata/crusoe_calib_pin.json.
func TestCrusoeCalibrationPinned(t *testing.T) {
	var got []crusoeCalibPin
	for _, c := range []*Crusoe{NewTM5600(), NewTM5800()} {
		for _, mr := range []float64{MissRateSmall, MissRateTree, MissRateClassW} {
			rec := &kernelRecorder{Processor: calibrationModel(c, mr)}
			costs, err := Calibrate(rec)
			if err != nil {
				t.Fatalf("%s at miss rate %v: %v", c.Name(), mr, err)
			}
			pin := crusoeCalibPin{Processor: c.Name(), MissRate: mr, Costs: costs}
			ks := kernels.CalibKernels()
			if len(rec.runs) != len(ks) {
				t.Fatalf("%s: %d kernel runs, want %d", c.Name(), len(rec.runs), len(ks))
			}
			for i, k := range ks {
				pin.Kernels = append(pin.Kernels, calibKernelPin{Kernel: k.Name,
					Cycles: rec.runs[i].Cycles, Stats: *rec.runs[i].CMS})
			}
			got = append(got, pin)
		}
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join("testdata", "crusoe_calib_pin.json")
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
		t.Fatalf("%v (run go test ./internal/cpu -run TestCrusoeCalibrationPinned -update-golden to create)", err)
	}
	if string(b) != string(want) {
		t.Fatalf("Crusoe calibration pin mismatch:\n--- got ---\n%s\n--- want ---\n%s", b, want)
	}
}
