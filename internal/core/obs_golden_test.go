package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nas"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestObsSnapshotGolden pins the exported metric vocabulary and every
// simulated value byte for byte: Table 1, a small Table 2 and the
// class S NAS sweep gathered into one Run must write exactly
// testdata/obs_snapshot.json. A renamed metric, a changed kind or unit,
// a counter that overwrites instead of accumulating, or a drifted
// simulated number all show up as a diff. The experiments gather no
// host wall-clock timer and the test sets no metadata, so the file is
// host-independent.
func TestObsSnapshotGolden(t *testing.T) {
	r := NewRun()
	if _, _, err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Table2(Table2Config{Particles: 4000, CPUCounts: []int{1, 2}, Theta: 0.7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.NASSweep(NASSweepConfig{Class: nas.ClassS, Ranks: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.Snap.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "obs_snapshot.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -run TestObsSnapshotGolden -update-golden to create)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("snapshot mismatch:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}
