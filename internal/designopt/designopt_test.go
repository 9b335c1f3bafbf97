package designopt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// testGrid is a small grid with every interesting feature: multiple
// fabrics/topologies, both packagings, a dominated slab (Power3
// traditional) and node counts that span the efficiency curve.
func testGrid() *Grid {
	fe, _ := ParseFabric("fe")
	ge, _ := ParseFabric("ge")
	ft, _ := ParseFabric("fe-fattree")
	g := DefaultGrid()
	g.Fabrics = []FabricChoice{fe, ge, ft}
	g.Nodes = []int{4, 16, 64, 256}
	g.Ambients = []float64{18, 27, 35}
	return g
}

func fingerprintOf(t *testing.T, g *Grid, opt Options) (uint64, *Result) {
	t.Helper()
	res, err := Optimize(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return Fingerprint(res.Frontier), res
}

// TestOptimizeDeterministicAcrossWorkers pins the headline contract:
// the frontier is bit-identical at workers 1, 2 and 8, memo on or off.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid()
	ref, refRes := fingerprintOf(t, g, Options{Workers: 1})
	if len(refRes.Frontier) == 0 {
		t.Fatal("empty frontier on the test grid")
	}
	for _, w := range []int{2, 8} {
		fp, _ := fingerprintOf(t, g, Options{Workers: w})
		if fp != ref {
			t.Errorf("workers=%d frontier differs from workers=1", w)
		}
	}
	fp, _ := fingerprintOf(t, g, Options{Workers: 8, NoMemo: true})
	if fp != ref {
		t.Error("memo-off frontier differs from memo-on")
	}
}

// TestPrunedFrontierMatchesExhaustive is the pruning correctness
// cross-check: at workers 1, 2 and 8, the pruned search's frontier is
// bit-identical to exhaustive enumeration, and on the default grid
// pruning actually fires.
func TestPrunedFrontierMatchesExhaustive(t *testing.T) {
	for _, g := range []*Grid{DefaultGrid(), testGrid()} {
		exhaustive, exRes := fingerprintOf(t, g, Options{Workers: 1, NoPrune: true})
		if exRes.Pruned != 0 || exRes.Evaluated != exRes.Candidates {
			t.Fatalf("exhaustive run pruned %d of %d", exRes.Pruned, exRes.Candidates)
		}
		for _, w := range []int{1, 2, 8} {
			fp, res := fingerprintOf(t, g, Options{Workers: w})
			if fp != exhaustive {
				t.Errorf("workers=%d pruned frontier differs from exhaustive", w)
			}
			if res.Evaluated+res.Pruned != res.Candidates {
				t.Errorf("workers=%d: evaluated %d + pruned %d != candidates %d",
					w, res.Evaluated, res.Pruned, res.Candidates)
			}
		}
	}
	_, res := fingerprintOf(t, DefaultGrid(), Options{})
	if res.Pruned == 0 || res.SlabsPruned == 0 {
		t.Errorf("pruning never fired on the default grid (pruned=%d slabs=%d)", res.Pruned, res.SlabsPruned)
	}
}

// TestMemoCountersDeterministic pins that the hit/miss counters are a
// pure function of the grid — even under a parallel sweep — and that
// the default grid amortizes ≥90% of its network solves, pruned or
// enumerated exhaustively.
func TestMemoCountersDeterministic(t *testing.T) {
	g := DefaultGrid()
	_, a := fingerprintOf(t, g, Options{Workers: 8})
	_, b := fingerprintOf(t, g, Options{Workers: 8})
	_, serial := fingerprintOf(t, g, Options{Workers: 1})
	if a.MemoHits != b.MemoHits || a.MemoMisses != b.MemoMisses {
		t.Errorf("memo counters raced: %d/%d vs %d/%d", a.MemoHits, a.MemoMisses, b.MemoHits, b.MemoMisses)
	}
	if a.MemoHits != serial.MemoHits || a.MemoMisses != serial.MemoMisses {
		t.Errorf("memo counters depend on workers: %d/%d vs serial %d/%d",
			a.MemoHits, a.MemoMisses, serial.MemoHits, serial.MemoMisses)
	}
	if max := uint64(len(g.Fabrics) * len(g.Nodes)); a.MemoMisses > max {
		t.Errorf("%d misses for %d distinct (fabric, p) cells", a.MemoMisses, max)
	}
	if hr := a.MemoHitRate(); hr < 0.9 {
		t.Errorf("default-grid memo hit rate %.3f, want ≥ 0.9", hr)
	}
	// Exhaustive enumeration scores every candidate, so its hit rate
	// measures the memo rather than the prune rate.
	_, ex := fingerprintOf(t, g, Options{NoPrune: true})
	if hr := ex.MemoHitRate(); hr < 0.9 {
		t.Errorf("default-grid exhaustive memo hit rate %.3f, want ≥ 0.9", hr)
	}
}

// TestDegenerateChoicesCannotNaN is the sweep-robustness guard: a CPU
// with no flops, a node with no watts and a zero-MTBF reliability
// model must yield a finite frontier with the degenerates excluded.
func TestDegenerateChoicesCannotNaN(t *testing.T) {
	g := testGrid()
	g.CPUs = append(g.CPUs,
		CPUChoice{Name: "NoFlops", Node: cluster.NodeP4, MflopsPerCPU: 0, AcqPerNodeUSD: 500},
		CPUChoice{Name: "NoWatts", Node: cluster.NodeSpec{Name: "w0", CPUModel: "w0", WattsLoad: 0}, MflopsPerCPU: 100, AcqPerNodeUSD: 500},
	)
	g.Rel.BaseMTBFHours = 0
	res, err := Optimize(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("degenerate choices emptied the frontier")
	}
	for i := range res.Frontier {
		p := &res.Frontier[i]
		if p.CPU == "NoFlops" || p.CPU == "NoWatts" {
			t.Errorf("degenerate CPU on the frontier: %s", p.String())
		}
		for _, v := range []float64{p.Eff, p.Gflops, p.TCOUSD, p.ToPPeR, p.PerfPerWatt, p.PerfPerSpace} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite objective in %s", p.String())
			}
		}
	}
	// And the pruned/exhaustive contract must survive the degenerates.
	pr, _ := fingerprintOf(t, g, Options{Workers: 2})
	ex, _ := fingerprintOf(t, g, Options{Workers: 2, NoPrune: true})
	if pr != ex {
		t.Error("degenerate slabs broke the pruned == exhaustive contract")
	}
}

// TestSlabBoundIsOptimistic cross-checks the pruning bounds against
// every feasible candidate: no design may beat its slab's bound in any
// objective (that is what makes skipping a dominated slab safe).
func TestSlabBoundIsOptimistic(t *testing.T) {
	g := testGrid()
	ev := NewEvaluator(g, NewMemo(g))
	var pt Point
	for ci := range g.CPUs {
		for ki := range g.Packs {
			for fi := range g.Fabrics {
				b := g.slabBoundAt(ci, ki, fi)
				for ni := range g.Nodes {
					for ai := range g.Ambients {
						if !ev.Eval(ci, ki, fi, ni, ai, &pt) {
							continue
						}
						if pt.ToPPeR < b.topperLB || pt.PerfPerWatt > b.ppwUB || pt.PerfPerSpace > b.ppsUB {
							t.Fatalf("bound not optimistic for %s: LB/UBs %.3f %.3f %.3f",
								pt.String(), b.topperLB, b.ppwUB, b.ppsUB)
						}
					}
				}
			}
		}
	}
}

// TestFrontierOrderIndependent inserts the same point set in shuffled
// orders and demands the same sorted frontier — the membership
// property the worker-count invariance rests on.
func TestFrontierOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]Point, 60)
	for i := range pts {
		pts[i] = Point{
			CPU:          "X",
			Nodes:        i,
			ToPPeR:       math.Floor(rng.Float64()*10) + 1,
			PerfPerWatt:  math.Floor(rng.Float64()*10) + 1,
			PerfPerSpace: math.Floor(rng.Float64()*10) + 1,
		}
	}
	var ref Frontier
	for _, p := range pts {
		ref.Insert(p)
	}
	want := Fingerprint(ref.Sorted())
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(pts))
		var f Frontier
		for _, i := range perm {
			f.Insert(pts[i])
		}
		if Fingerprint(f.Sorted()) != want {
			t.Fatalf("trial %d: frontier depends on insertion order", trial)
		}
	}
	// Spot-check dominance on the survivors: no frontier point may
	// dominate another.
	s := ref.Sorted()
	for i := range s {
		for j := range s {
			if i != j && dominates(&s[i], &s[j]) {
				t.Fatalf("frontier keeps dominated point: %v dominates %v", s[i], s[j])
			}
		}
	}
}

// TestBudgetCapsFeasibility pins the budget guards: every frontier
// point respects the caps, and an impossible budget empties the
// frontier rather than erroring.
func TestBudgetCapsFeasibility(t *testing.T) {
	g := testGrid()
	g.Budget = Budget{MaxPowerKW: 3, MaxSpaceSqFt: 40, MaxTCOUSD: 120000}
	res, err := Optimize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("modest budget emptied the frontier")
	}
	for i := range res.Frontier {
		p := &res.Frontier[i]
		if p.TCOUSD > g.Budget.MaxTCOUSD {
			t.Errorf("frontier point over TCO budget: %s", p.String())
		}
	}
	fpB, _ := fingerprintOf(t, g, Options{NoPrune: true})
	if fp := Fingerprint(res.Frontier); fp != fpB {
		t.Error("budget-capped pruned frontier differs from exhaustive")
	}
	g.Budget = Budget{MaxTCOUSD: 1} // nothing fits
	res, err = Optimize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 0 || res.Feasible != 0 {
		t.Errorf("impossible budget left %d feasible, frontier %d", res.Feasible, len(res.Frontier))
	}
}

// TestParseAxes pins the axis-name surface the spec and CLI share.
func TestParseAxes(t *testing.T) {
	for _, name := range []string{"fe", "ge", "e10", "fe-fattree", "ge-torus2d", "e10-torus3d", "FE-STAR"} {
		if _, err := ParseFabric(name); err != nil {
			t.Errorf("ParseFabric(%q): %v", name, err)
		}
	}
	for _, name := range []string{"myrinet", "fe-hypercube", ""} {
		if _, err := ParseFabric(name); err == nil {
			t.Errorf("ParseFabric(%q) accepted", name)
		}
	}
	base, _ := ParseFabric("fe")
	tree, _ := ParseFabric("fe-fattree")
	if tree.PortCostUSD <= base.PortCostUSD {
		t.Error("fat-tree ports should cost more than a star's")
	}
	for _, name := range []string{"PIII", "alpha", "TM5600", "Power3", "athlon"} {
		if _, err := ParseCPU(name); err != nil {
			t.Errorf("ParseCPU(%q): %v", name, err)
		}
	}
	if _, err := ParseCPU("P5"); err == nil {
		t.Error("ParseCPU accepted an unknown model")
	}
	for _, name := range []string{"traditional", "Blade"} {
		if _, err := ParsePack(name); err != nil {
			t.Errorf("ParsePack(%q): %v", name, err)
		}
	}
	if _, err := ParsePack("dense"); err == nil {
		t.Error("ParsePack accepted an unknown packaging")
	}
}

// TestGridValidate pins the structural-degeneracy errors.
func TestGridValidate(t *testing.T) {
	bad := []func(*Grid){
		func(g *Grid) { g.CPUs = nil },
		func(g *Grid) { g.Nodes = []int{0} },
		func(g *Grid) { g.Ambients = []float64{math.NaN()} },
		func(g *Grid) { g.Budget.MaxPowerKW = -1 },
		func(g *Grid) { g.Workload.Particles = 0 },
		func(g *Grid) { g.Fabrics[0].Template = nil },
		func(g *Grid) { g.Rates.Years = 0 },
	}
	for i, mutate := range bad {
		g := DefaultGrid()
		mutate(g)
		if _, err := Optimize(g, Options{}); err == nil {
			t.Errorf("case %d: degenerate grid accepted", i)
		}
	}
}
