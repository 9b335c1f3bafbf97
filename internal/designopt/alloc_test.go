package designopt

import "testing"

// TestEvalZeroAllocSteadyState pins the inner loop's allocation
// contract: once NewEvaluator has solved the network table, scoring a
// candidate allocates nothing.
func TestEvalZeroAllocSteadyState(t *testing.T) {
	g := DefaultGrid()
	ev := NewEvaluator(g)
	na, nn, nf := len(g.Ambients), len(g.Nodes), len(g.Fabrics)
	var pt Point
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
