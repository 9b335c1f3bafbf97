package obs

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenSnapshot builds a snapshot with one metric of every kind plus
// the serializer's edge cases (exact large counters, NaN gauge).
func goldenSnapshot() *Snapshot {
	s := NewSnapshot()
	s.SetMeta("driver", "golden")
	s.SetMeta("args", "-x 1")
	s.AddCounter("cms.cycles.total", "cycles", 18446744073709551615)
	s.AddCounter("treecode.interactions", "", 9808296)
	s.AddTimer("host.build", 0.125)
	s.SetGauge("mpi.time.max", "s", 0.42658361463054506)
	s.SetGauge("weird.nan", "", math.NaN())
	return s
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/obs -update-golden to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestSnapshotJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenSnapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", b.String())
}

func TestSnapshotCSVGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenSnapshot().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.csv", b.String())
}

func TestTraceJSONGolden(t *testing.T) {
	clock := 0.0
	tr := NewTracerWithClock(func() float64 { clock += 100; return clock })
	tr.NameProcess(PidHost, "host (wall clock)")
	sp := tr.Begin(PidHost, 0, "treecode", "build")
	sp.End(map[string]any{"nodes": 42, "label": "tree"})
	tr.Complete(PidCMS, 0, "cms", "translate", 1000, 250.5, map[string]any{"pc": 16})
	tr.Instant(PidCMS, 0, "cms", "evict", 2000, nil)
	tr.Complete(PidSim, 3, "mpi", "send", 0.5, 12.25, map[string]any{"bytes": 4096, "dst": 1})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.json", b.String())
}

// TestGoldenSnapshotValidates pins the golden artifact against the
// checked-in schema's envelope rules (not its required-sample list,
// which is for driver runs).
func TestGoldenSnapshotValidates(t *testing.T) {
	schemaJSON, err := os.ReadFile(filepath.Join("..", "..", "schema", "obs_snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Strip the driver-run sample requirements; keep envelope + naming.
	schema := strings.Replace(string(schemaJSON),
		"\"required_samples\": [", "\"required_samples_off\": [", 1)
	if strings.Contains(schema, "\"required_samples\":") {
		t.Fatal("failed to neutralize required_samples")
	}
	var b strings.Builder
	if err := goldenSnapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshotJSON([]byte(schema), []byte(b.String())); err != nil {
		t.Fatal(err)
	}
}

func TestValidateSnapshotJSONRejects(t *testing.T) {
	schemaJSON, err := os.ReadFile(filepath.Join("..", "..", "schema", "obs_snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The golden snapshot lacks the driver-run required samples.
	var b strings.Builder
	if err := goldenSnapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshotJSON(schemaJSON, []byte(b.String())); err == nil ||
		!strings.Contains(err.Error(), "missing required samples") {
		t.Fatalf("want missing-samples error, got %v", err)
	}
	if err := ValidateSnapshotJSON(schemaJSON, []byte(`{"schema":"nope","meta":{},"samples":[]}`)); err == nil {
		t.Fatal("wrong schema version accepted")
	}
	if err := ValidateSnapshotJSON(schemaJSON, []byte(`{"bogus":1}`)); err == nil {
		t.Fatal("unknown envelope fields accepted")
	}
}
