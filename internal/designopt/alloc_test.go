package designopt

import "testing"

// TestEvalZeroAllocSteadyState pins the inner loop's allocation
// contract: once the memo table is warm, scoring a candidate allocates
// nothing — the property that lets the optimizer sustain production
// request volume.
func TestEvalZeroAllocSteadyState(t *testing.T) {
	g := DefaultGrid()
	memo := NewMemo(g)
	ev := NewEvaluator(g, memo)
	na, nn, nf := len(g.Ambients), len(g.Nodes), len(g.Fabrics)
	var pt Point
	// Warm every memo cell so the measured loop is pure steady state.
	for fi := 0; fi < nf; fi++ {
		for ni := 0; ni < nn; ni++ {
			ev.Eval(0, 0, fi, ni, 0, &pt)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ci := i % len(g.CPUs)
		ki := (i / len(g.CPUs)) % len(g.Packs)
		fi := i % nf
		ni := i % nn
		ai := i % na
		ev.Eval(ci, ki, fi, ni, ai, &pt)
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Eval allocates %.1f per call, want 0", allocs)
	}
}
