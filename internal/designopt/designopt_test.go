package designopt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netsim"
)

// testGrid is a small grid with every interesting feature: multiple
// fabrics/topologies, both packagings, a dominated CPU and
// packaging pair (Power3 traditional) and node counts that span the efficiency curve.
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

// optimize runs the search and fails the test on an error.
func optimize(t *testing.T, g *Grid) *Result {
	t.Helper()
	res, err := Optimize(g)
	if err != nil {
		t.Fatal(err)
	}
	return res
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

// reference is what Optimize is checked against: every candidate
// scored through an evaluator over a one-cell grid — the candidate's
// own fabric and node count — so each network solve is computed for
// that candidate alone and no table index is shared; the feasible ones
// go into one Frontier.
func reference(t *testing.T, g *Grid) *Result {
	t.Helper()
	res := &Result{Candidates: g.Candidates()}
	var front Frontier
	var pt Point
	for ci := range g.CPUs {
		for ki := range g.Packs {
			for fi := range g.Fabrics {
				for ni := range g.Nodes {
					cell := *g
					cell.Fabrics = g.Fabrics[fi : fi+1]
					cell.Nodes = g.Nodes[ni : ni+1]
					ev := NewEvaluator(&cell)
					for ai := range g.Ambients {
						if ev.Eval(ci, ki, 0, 0, ai, &pt) {
							res.Feasible++
							front.Insert(pt)
						}
					}
				}
			}
		}
	}
	res.Frontier = front.Sorted()
	return res
}

// TestOptimizeMatchesDirectSolve checks the search against the
// per-candidate direct-solve reference on the default, test and
// fabric-heavy grids: the same frontier bit for bit, the same candidate
// and feasible counts, and the same frontier again on a second run.
func TestOptimizeMatchesDirectSolve(t *testing.T) {
	for i, g := range []*Grid{DefaultGrid(), testGrid(), heavyGrid(t)} {
		res, ref := optimize(t, g), reference(t, g)
		if len(res.Frontier) == 0 {
			t.Errorf("grid %d: empty frontier", i)
		}
		if fp := Fingerprint(res.Frontier); fp != Fingerprint(ref.Frontier) {
			t.Errorf("grid %d: frontier differs from the direct-solve reference", i)
		} else if fp != Fingerprint(optimize(t, g).Frontier) {
			t.Errorf("grid %d: frontier differs between two runs", i)
		}
		if res.Candidates != ref.Candidates || res.Feasible != ref.Feasible {
			t.Errorf("grid %d: %d candidates, %d feasible; reference %d, %d",
				i, res.Candidates, res.Feasible, ref.Candidates, ref.Feasible)
		}
	}
}

// TestCommTableMatchesDirectSolve checks the evaluator's table against
// the solve it holds: on the default and the fabric-heavy grids, every
// (fabric, p) cell equals bit for bit a network solve computed here
// from the fabric template.
func TestCommTableMatchesDirectSolve(t *testing.T) {
	for _, g := range []*Grid{DefaultGrid(), heavyGrid(t)} {
		ev := NewEvaluator(g)
		if len(ev.comm) != len(g.Fabrics)*len(g.Nodes) {
			t.Fatalf("%d cells for %d fabrics × %d node counts", len(ev.comm), len(g.Fabrics), len(g.Nodes))
		}
		for fi, fc := range g.Fabrics {
			for ni, p := range g.Nodes {
				f := *fc.Template
				if err := netsim.ApplyTopology(&f, fc.Topology, p); err != nil {
					t.Fatal(err)
				}
				want := g.Workload.CommSecondsPerStep(&f, p)
				if got := ev.comm[fi*len(g.Nodes)+ni]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("cell (%s, p=%d) holds %v, direct solve gives %v", fc.Name, p, got, want)
				}
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
	res := optimize(t, g)
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
	// And the search must still match the direct-solve reference.
	if Fingerprint(res.Frontier) != Fingerprint(reference(t, g).Frontier) {
		t.Error("degenerate choices broke the Optimize == reference contract")
	}
}

// TestFrontierOrderIndependent inserts the same point set in shuffled
// orders and demands the same sorted frontier — the membership
// property that makes the frontier a pure function of the grid.
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
	if Fingerprint(res.Frontier) != Fingerprint(reference(t, g).Frontier) {
		t.Error("budget-capped frontier differs from the direct-solve reference")
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
