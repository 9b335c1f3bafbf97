package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
)

// TestDriverEnvelope drives the shared flag surface on a private
// FlagSet and checks the written artifact against the checked-in
// schema: meta stamped, counters exact, trace valid.
func TestDriverEnvelope(t *testing.T) {
	dir := t.TempDir()
	obsPath := filepath.Join(dir, "obs.json")
	csvPath := filepath.Join(dir, "obs.csv")
	tracePath := filepath.Join(dir, "out.trace")

	d := &Driver{Name: "drivertest"}
	fs := flag.NewFlagSet("drivertest", flag.ContinueOnError)
	d.RegisterFlags(fs)
	if err := fs.Parse([]string{
		"-obs-json", obsPath, "-obs-csv", csvPath, "-trace", tracePath, "-procs", "2",
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Setup(); err != nil {
		t.Fatal(err)
	}
	defer par.SetWorkers(0)
	if par.Workers() != 2 {
		t.Fatalf("par.Workers() = %d after -procs 2", par.Workers())
	}
	if d.Run == nil || d.Run.Tracer == nil {
		t.Fatal("Setup did not create a traced Run")
	}
	if got := d.Run.Snap.Meta()["driver"]; got != "drivertest" {
		t.Fatalf("driver meta = %q", got)
	}

	// Stand in for an experiment: the cms/treecode contract metrics by
	// hand, the mpi vocabulary gathered from a real (tiny) world so the
	// schema's required samples track what Collect actually emits.
	d.Run.Snap.AddCounter("cms.cycles.total", "cycles", 12345)
	d.Run.Snap.AddCounter("treecode.interactions", "", 90)
	w, err := mpi.NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *mpi.Comm) error {
		c.AllreduceInto(mpi.Sum, []float64{float64(c.Rank())})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d.Run.Snap.Gather(w)
	sp := d.Run.Tracer.Begin(obs.PidHost, 0, "test", "phase")
	sp.End(nil)

	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	schemaJSON, err := os.ReadFile(filepath.Join("..", "..", "schema", "obs_snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	snapJSON, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSnapshotJSON(schemaJSON, snapJSON); err != nil {
		t.Fatalf("driver artifact fails its own schema: %v", err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV artifact")
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace artifact")
	}
}

func TestDriverRejectsBadFormat(t *testing.T) {
	d := &Driver{Name: "x", Format: "yaml"}
	if err := d.Setup(); err == nil {
		t.Fatal("bad -format accepted")
	}
}

// TestTable2ObsCounterDeterminism is the acceptance check in miniature:
// every counter the instrumented Table 2 sweep produces — treecode
// interaction shards, mpi volumes, cms-derived calibration counts — must
// be bit-identical at host worker widths 1, 2 and 8.
func TestTable2ObsCounterDeterminism(t *testing.T) {
	cfg := Table2Config{Particles: 4000, CPUCounts: []int{1, 2}, Theta: 0.7}
	counters := func(w int) map[string]uint64 {
		par.SetWorkers(w)
		r := NewRun()
		if _, _, err := r.Table2(cfg); err != nil {
			t.Fatal(err)
		}
		out := map[string]uint64{}
		for _, sm := range r.Snap.Samples() {
			if sm.Kind == obs.KindCounter {
				out[sm.Name] = sm.Int
			}
		}
		return out
	}
	defer par.SetWorkers(0)
	ref := counters(1)
	if len(ref) == 0 {
		t.Fatal("no counters gathered from Table2")
	}
	if _, ok := ref["treecode.interactions"]; !ok {
		t.Fatal("treecode.interactions missing from Table2 snapshot")
	}
	if _, ok := ref["mpi.bytes.total"]; !ok {
		t.Fatal("mpi.bytes.total missing from Table2 snapshot")
	}
	for _, w := range []int{2, 8} {
		got := counters(w)
		if len(got) != len(ref) {
			t.Fatalf("width %d: %d counters vs %d", w, len(got), len(ref))
		}
		for name, v := range ref {
			if got[name] != v {
				t.Fatalf("width %d: %s = %d, want %d", w, name, got[name], v)
			}
		}
	}
}

// TestTable1GathersCMS checks the microkernel experiment feeds the CMS
// pipeline counters of the Crusoe runs into the run's snapshot.
func TestTable1GathersCMS(t *testing.T) {
	r := NewRun()
	if _, _, err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	if got := r.Snap.Counter("cms.cycles.total"); got == 0 {
		t.Fatal("cms.cycles.total not gathered from the TM5600 runs")
	}
	if got := r.Snap.Counter("cms.runs"); got != 2 {
		t.Fatalf("cms.runs = %d, want 2 (math + Karp variants)", got)
	}
	if _, ok := r.Snap.Lookup("table1.633_mhz_transmeta_tm5600.math_mflops"); !ok {
		t.Fatal("per-processor rating gauge missing")
	}
}
