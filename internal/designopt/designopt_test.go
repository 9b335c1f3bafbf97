package designopt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/par"
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

// fingerprintAt runs the search with the process pool w wide (0: the
// default width) and restores the default afterwards.
func fingerprintAt(t *testing.T, g *Grid, w int) (uint64, *Result) {
	t.Helper()
	par.SetWorkers(w)
	defer par.SetWorkers(0)
	res, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	return Fingerprint(res.Frontier), res
}

// heavyGrid is the default grid cut to six fabrics at 64..1024 nodes,
// where the O(p) network solve dominates a candidate's cost.
func heavyGrid(t *testing.T) *Grid {
	t.Helper()
	g := DefaultGrid()
	g.Fabrics = g.Fabrics[:0]
	for _, name := range []string{"fe", "ge", "fe-fattree", "ge-fattree", "ge-torus2d", "ge-torus3d"} {
		f, err := ParseFabric(name)
		if err != nil {
			t.Fatal(err)
		}
		g.Fabrics = append(g.Fabrics, f)
	}
	g.Nodes = []int{64, 128, 256, 512, 1024}
	return g
}

// exhaustive is the reference the pruned parallel search is checked
// against: every candidate scored serially, with no slab skipped, and
// inserted into one Frontier. The reference scores each candidate
// through an evaluator over a fresh memo, so its network solve is
// computed directly, never served from a cache. Each candidate is also
// scored through one evaluator over a shared memo, which must agree
// bit for bit; the result's memo counters are the shared memo's, and
// measure the memo alone, since nothing is pruned.
func exhaustive(t *testing.T, g *Grid) *Result {
	t.Helper()
	memo := NewMemo(g)
	shared := NewEvaluator(g, memo)
	res := &Result{Candidates: g.Candidates()}
	var front Frontier
	var pt, memoPt Point
	for ci := range g.CPUs {
		for ki := range g.Packs {
			for fi := range g.Fabrics {
				for ni := range g.Nodes {
					for ai := range g.Ambients {
						res.Evaluated++
						ok := NewEvaluator(g, NewMemo(g)).Eval(ci, ki, fi, ni, ai, &pt)
						if shared.Eval(ci, ki, fi, ni, ai, &memoPt) != ok ||
							ok && Fingerprint([]Point{pt}) != Fingerprint([]Point{memoPt}) {
							t.Fatalf("candidate (%d,%d,%d,%d,%d): the memoized score differs from a direct solve's",
								ci, ki, fi, ni, ai)
						}
						if ok {
							res.Feasible++
							front.Insert(pt)
						}
					}
				}
			}
		}
	}
	res.Frontier = front.Sorted()
	res.MemoHits, res.MemoMisses = memo.Hits(), memo.Misses()
	return res
}

// TestOptimizeDeterministicAcrossWorkers pins the headline contract:
// the frontier is bit-identical at pool widths 1, 2 and 8.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid()
	ref, refRes := fingerprintAt(t, g, 1)
	if len(refRes.Frontier) == 0 {
		t.Fatal("empty frontier on the test grid")
	}
	for _, w := range []int{2, 8} {
		fp, _ := fingerprintAt(t, g, w)
		if fp != ref {
			t.Errorf("width %d frontier differs from width 1", w)
		}
	}
}

// TestPrunedFrontierMatchesExhaustive is the pruning correctness
// cross-check: at widths 1, 2 and 8, the pruned search's frontier is
// bit-identical to exhaustive enumeration, and on the default grid
// pruning actually fires.
func TestPrunedFrontierMatchesExhaustive(t *testing.T) {
	for _, g := range []*Grid{DefaultGrid(), testGrid()} {
		ex := Fingerprint(exhaustive(t, g).Frontier)
		for _, w := range []int{1, 2, 8} {
			fp, res := fingerprintAt(t, g, w)
			if fp != ex {
				t.Errorf("width %d pruned frontier differs from exhaustive", w)
			}
			if res.Evaluated+res.Pruned != res.Candidates {
				t.Errorf("width %d: evaluated %d + pruned %d != candidates %d",
					w, res.Evaluated, res.Pruned, res.Candidates)
			}
		}
	}
	_, res := fingerprintAt(t, DefaultGrid(), 0)
	if res.Pruned == 0 || res.SlabsPruned == 0 {
		t.Errorf("pruning never fired on the default grid (pruned=%d slabs=%d)", res.Pruned, res.SlabsPruned)
	}
}

// TestMemoCountersDeterministic pins that the hit/miss counters are a
// pure function of the grid — even under a parallel sweep — that the
// default grid amortizes ≥90% of its network solves, pruned or
// enumerated exhaustively, and the exact counts on a fabric-heavy grid.
func TestMemoCountersDeterministic(t *testing.T) {
	g := DefaultGrid()
	_, a := fingerprintAt(t, g, 8)
	_, b := fingerprintAt(t, g, 8)
	_, serial := fingerprintAt(t, g, 1)
	if a.MemoHits != b.MemoHits || a.MemoMisses != b.MemoMisses {
		t.Errorf("memo counters raced: %d/%d vs %d/%d", a.MemoHits, a.MemoMisses, b.MemoHits, b.MemoMisses)
	}
	if a.MemoHits != serial.MemoHits || a.MemoMisses != serial.MemoMisses {
		t.Errorf("memo counters depend on width: %d/%d vs serial %d/%d",
			a.MemoHits, a.MemoMisses, serial.MemoHits, serial.MemoMisses)
	}
	if max := uint64(len(g.Fabrics) * len(g.Nodes)); a.MemoMisses > max {
		t.Errorf("%d misses for %d distinct (fabric, p) cells", a.MemoMisses, max)
	}
	if hr := a.MemoHitRate(); hr < 0.9 {
		t.Errorf("default-grid memo hit rate %.3f, want ≥ 0.9", hr)
	}
	if hr := exhaustive(t, g).MemoHitRate(); hr < 0.9 {
		t.Errorf("default-grid exhaustive memo hit rate %.3f, want ≥ 0.9", hr)
	}

	// Six fabrics at 64..1024 nodes, where the O(p) network solve
	// dominates a candidate's cost: 1200 candidates, 140 pruned in 7
	// slabs, and each of the 1060 scored ones looks its solve up. The
	// memo computes each of the 6×5 (fabric, p) cells once — 30
	// misses — and serves the other 1030 lookups from the table.
	heavy := heavyGrid(t)
	for _, w := range []int{1, 8} {
		_, res := fingerprintAt(t, heavy, w)
		if res.Evaluated != 1060 || res.Pruned != 140 || res.MemoHits != 1030 || res.MemoMisses != 30 {
			t.Errorf("heavy grid at width %d: evaluated %d pruned %d, memo %d hits / %d misses; want 1060, 140, 1030 / 30",
				w, res.Evaluated, res.Pruned, res.MemoHits, res.MemoMisses)
		}
	}
}

// TestMemoCellsMatchDirectSolve checks the memo against the solve it
// caches: after the search at widths 1 and 8 on the default and the
// fabric-heavy grids, every filled cell of the (fabric, p) table holds
// bit for bit what a direct network solve for that cell gives, and the
// filled cells number the misses.
func TestMemoCellsMatchDirectSolve(t *testing.T) {
	for _, g := range []*Grid{DefaultGrid(), heavyGrid(t)} {
		direct := NewEvaluator(g, NewMemo(g))
		for _, w := range []int{1, 8} {
			par.SetWorkers(w)
			res, memo, err := search(g)
			par.SetWorkers(0)
			if err != nil {
				t.Fatal(err)
			}
			var filled uint64
			for fi := range g.Fabrics {
				for ni := range g.Nodes {
					c := &memo.cells[fi*len(g.Nodes)+ni]
					if c.done.Load() == 0 {
						continue
					}
					filled++
					if got, want := c.comm, direct.solveComm(fi, ni); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("width %d: memo cell (%s, p=%d) holds %v, direct solve gives %v",
							w, g.Fabrics[fi].Name, g.Nodes[ni], got, want)
					}
				}
			}
			if filled == 0 || filled != res.MemoMisses {
				t.Errorf("width %d: %d filled cells for %d misses", w, filled, res.MemoMisses)
			}
		}
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
	pr, res := fingerprintAt(t, g, 4)
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
	if pr != Fingerprint(exhaustive(t, g).Frontier) {
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
	res, err := Optimize(g)
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
	if Fingerprint(res.Frontier) != Fingerprint(exhaustive(t, g).Frontier) {
		t.Error("budget-capped pruned frontier differs from exhaustive")
	}
	g.Budget = Budget{MaxTCOUSD: 1} // nothing fits
	res, err = Optimize(g)
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
		if _, err := Optimize(g); err == nil {
			t.Errorf("case %d: degenerate grid accepted", i)
		}
	}
}
