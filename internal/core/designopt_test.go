package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/designopt"
	"repro/internal/kernels"
	"repro/internal/par"
)

// TestPinnedRatesMatchTable1 cross-checks designopt.PinnedKarpMflops —
// the per-CPU workload rates the design-space optimizer sweeps with —
// against the live Table 1 microkernel, bit for bit. The pins exist so
// a sweep costs no simulator runs; this test is what keeps them from
// drifting when a CPU model changes.
func TestPinnedRatesMatchTable1(t *testing.T) {
	// Map the simulator's long processor names onto the optimizer's
	// short axis labels.
	short := func(name string) string {
		switch {
		case strings.Contains(name, "Pentium III"):
			return "PIII"
		case strings.Contains(name, "Alpha"):
			return "Alpha"
		case strings.Contains(name, "TM5600"):
			return "TM5600"
		case strings.Contains(name, "POWER3"), strings.Contains(name, "Power3"):
			return "Power3"
		case strings.Contains(name, "Athlon"):
			return "Athlon"
		}
		return ""
	}
	seen := map[string]bool{}
	for _, p := range cpu.EvaluationCPUs() {
		key := short(p.Name())
		if key == "" {
			t.Fatalf("no designopt label for processor %q", p.Name())
		}
		g := kernels.DefaultGravMicro(kernels.GravKarp)
		prog, st, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunKernel(prog, st)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := designopt.PinnedKarpMflops[key]
		if !ok {
			t.Fatalf("PinnedKarpMflops has no entry for %q", key)
		}
		if got := res.Mflops(); got != want {
			t.Errorf("%s: live Karp rate %v, pinned %v — update designopt.PinnedKarpMflops", key, got, want)
		}
		seen[key] = true
	}
	if len(seen) != len(designopt.PinnedKarpMflops) {
		t.Errorf("pinned %d CPUs, Table 1 ran %d", len(designopt.PinnedKarpMflops), len(seen))
	}
}

// TestTopperOptSpecRuns: the default spec sweeps the default grid and
// emits a stable non-empty frontier with the obs counters the gateway
// schema expects.
func TestTopperOptSpecRuns(t *testing.T) {
	run := func() (*SpecResult, *Run) {
		r := NewRun()
		res, err := RunSpec(r, &TopperOptSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return res, r
	}
	r1, run1 := run()
	r2, _ := run()
	if r1.Text != r2.Text {
		t.Fatalf("topperopt text differs between runs:\n%q\n%q", r1.Text, r2.Text)
	}
	j1, _ := json.Marshal(r1.Data)
	j2, _ := json.Marshal(r2.Data)
	if string(j1) != string(j2) {
		t.Fatal("topperopt result JSON differs between runs")
	}
	payload, ok := r1.Data.(TopperOptResult)
	if !ok {
		t.Fatalf("Data is %T, want TopperOptResult", r1.Data)
	}
	if len(payload.Frontier) == 0 {
		t.Fatal("empty frontier on the default grid")
	}
	if payload.Evaluated+payload.Pruned != payload.Candidates {
		t.Fatalf("evaluated %d + pruned %d != candidates %d",
			payload.Evaluated, payload.Pruned, payload.Candidates)
	}
	if !strings.Contains(r1.Text, "Pareto frontier") {
		t.Errorf("unexpected text: %q", r1.Text)
	}
	for _, name := range []string{"designopt.memo.hit", "designopt.memo.miss", "designopt.pruned", "designopt.evaluated"} {
		if !strings.Contains(run1.Snap.Table("x", "designopt.").String(), name) {
			t.Errorf("snapshot missing counter %s", name)
		}
	}
}

// TestTopperOptSpecValidation: bad axis names and degenerate grids are
// rejected at Validate time, before any work runs.
func TestTopperOptSpecValidation(t *testing.T) {
	for _, bad := range []*TopperOptSpec{
		{CPUs: []string{"G4"}},
		{Packs: []string{"liquid"}},
		{Fabrics: []string{"myrinet"}},
		{Fabrics: []string{"ge-hypercube"}},
		{Nodes: []int{0}},
		{Ambients: []float64{-400}},
		{MaxPowerKW: -1},
	} {
		c, err := CanonicalSpec(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	// The search width follows the process pool and changes nothing
	// the spec returns, so the serve layer's cache stays coherent at
	// any -procs.
	run := func(w int) *SpecResult {
		par.SetWorkers(w)
		defer par.SetWorkers(0)
		res, err := RunSpec(NewRun(), &TopperOptSpec{Nodes: []int{8, 64}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(3)
	fa := a.Data.(TopperOptResult).Frontier
	fb := b.Data.(TopperOptResult).Frontier
	if designopt.Fingerprint(fa) != designopt.Fingerprint(fb) || a.Text != b.Text {
		t.Fatal("pool width changed the topperopt result")
	}
}
