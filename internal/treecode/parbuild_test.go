package treecode

import (
	"reflect"
	"testing"

	"repro/internal/nbody"
)

// buildAt builds the same tree at a given worker count.
func buildAt(t *testing.T, s *nbody.System, workers int, quad bool) *Tree {
	t.Helper()
	tr, err := Build(SourcesFromSystem(s), BuildOptions{Quadrupole: quad, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestParallelBuildBitIdentical asserts the determinism contract of the
// host-parallel build: node array (order, keys, boxes, moments —
// every float bit) and sorted sources are identical at worker counts
// 1, 2 and 8. N is above the parallel threshold so widths >1 exercise the
// spine/task path while width 1 takes the serial recursion.
func TestParallelBuildBitIdentical(t *testing.T) {
	for _, quad := range []bool{false, true} {
		s := nbody.NewPlummer(6000, 1, 42)
		ref := buildAt(t, s, 1, quad)
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("quad=%v serial invariants: %v", quad, err)
		}
		for _, w := range []int{2, 8} {
			got := buildAt(t, s, w, quad)
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("quad=%v workers=%d invariants: %v", quad, w, err)
			}
			if !reflect.DeepEqual(got.Nodes, ref.Nodes) {
				t.Fatalf("quad=%v workers=%d: node array differs from serial", quad, w)
			}
			if !reflect.DeepEqual(got.Sources, ref.Sources) {
				t.Fatalf("quad=%v workers=%d: sorted sources differ from serial", quad, w)
			}
		}
	}
}

// TestParallelBuildUniformCube repeats the bit-identity check on a
// uniform distribution (balanced octants, the opposite load shape from
// Plummer's central concentration).
func TestParallelBuildUniformCube(t *testing.T) {
	s := nbody.NewUniformCube(5000, 9)
	ref := buildAt(t, s, 1, false)
	for _, w := range []int{2, 8} {
		got := buildAt(t, s, w, false)
		if !reflect.DeepEqual(got.Nodes, ref.Nodes) {
			t.Fatalf("workers=%d: node array differs from serial", w)
		}
	}
}

// TestParallelForcesBitIdentical asserts the treecode force loop returns
// bit-identical acceleration arrays at worker counts 1, 2 and 8, and the
// same interaction statistics.
func TestParallelForcesBitIdentical(t *testing.T) {
	run := func(w int) (*nbody.System, Stats) {
		s := nbody.NewPlummer(6000, 1, 2024)
		f := &Forcer{Theta: 0.7, Workers: w}
		if err := f.Forces(s); err != nil {
			t.Fatal(err)
		}
		return s, f.LastStats
	}
	ref, refStats := run(1)
	for _, w := range []int{2, 8} {
		got, gotStats := run(w)
		if gotStats != refStats {
			t.Fatalf("workers=%d stats %+v differ from serial %+v", w, gotStats, refStats)
		}
		for i := 0; i < ref.N(); i++ {
			if got.AX[i] != ref.AX[i] || got.AY[i] != ref.AY[i] || got.AZ[i] != ref.AZ[i] {
				t.Fatalf("workers=%d: acceleration of particle %d differs from serial", w, i)
			}
		}
	}
}

// TestParallelBuildTinySystems drives the thresholds: systems below the
// parallel cutoff, single-source trees and coincident particles must
// behave identically at any width.
func TestParallelBuildTinySystems(t *testing.T) {
	srcs := []Source{{X: 0.5, Y: 0.5, Z: 0.5, M: 1, Index: 0}}
	for _, w := range []int{1, 8} {
		tr, err := Build(srcs, BuildOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
	// Coincident particles bottom out at MaxDepth inside one leaf.
	var co []Source
	for i := 0; i < 20; i++ {
		co = append(co, Source{X: 0.25, Y: 0.25, Z: 0.25, M: 1, Index: i})
	}
	co = append(co, Source{X: 0.75, Y: 0.75, Z: 0.75, M: 1, Index: 20})
	for _, w := range []int{1, 8} {
		tr, err := Build(co, BuildOptions{Bucket: 4, Workers: w})
		if err != nil {
			t.Fatalf("coincident workers=%d: %v", w, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("coincident workers=%d: %v", w, err)
		}
	}
}
