package kernels

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cms"
	"repro/internal/isa"
	"repro/internal/vliw"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// cmsPin is one CMS configuration's complete simulated outcome.
type cmsPin struct {
	Kernel string
	Wide   bool
	Hot    int
	Cycles uint64
	Stats  cms.Stats
	Trace  isa.Trace
}

// TestCMSConfigurationsPinned pins, bit for bit, every cms.Stats field,
// the returned cycles and the x86-level trace of the GravMicro Math and
// Karp kernels under wide and narrow molecules, with HotThreshold 1
// (everything translated at first touch) and the default (interpretation,
// then translation). Table 1 covers only the wide default; this covers
// the narrow format and the eager threshold too, so a change to the
// translator, scheduler or VLIW timing shows as a diff of
// testdata/cms_pin.json.
func TestCMSConfigurationsPinned(t *testing.T) {
	var got []cmsPin
	for _, variant := range []GravVariant{GravMath, GravKarp} {
		g := GravMicro{Variant: variant, NBodies: 4, Iters: 50, TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 3}
		for _, wide := range []bool{true, false} {
			for _, hot := range []int{1, cms.DefaultParams().HotThreshold} {
				p, st, err := g.Build()
				if err != nil {
					t.Fatal(err)
				}
				params := cms.DefaultParams()
				params.HotThreshold = hot
				m := cms.NewMachine(params, vliw.TM5600Timing())
				m.Trans.Wide = wide
				cycles, tr, err := m.Run(p, st, 0)
				if err != nil {
					t.Fatalf("%v wide=%v hot=%d: %v", variant, wide, hot, err)
				}
				got = append(got, cmsPin{Kernel: variant.String(), Wide: wide, Hot: hot,
					Cycles: cycles, Stats: m.Stats(), Trace: tr})
			}
		}
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join("testdata", "cms_pin.json")
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
		t.Fatalf("%v (run go test ./internal/kernels -run TestCMSConfigurationsPinned -update-golden to create)", err)
	}
	if string(b) != string(want) {
		t.Fatalf("CMS pin mismatch:\n--- got ---\n%s\n--- want ---\n%s", b, want)
	}
}
