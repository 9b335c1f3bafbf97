package designopt

import (
	"math"
	"sort"

	"repro/internal/par"
)

// searchGrain is the candidates per chunk of a slab's parallel
// evaluation.
const searchGrain = 64

// Result is one optimization run's outcome and telemetry. Every field
// is deterministic for a given grid — including the memo counters,
// because each distinct (fabric, p) cell is solved (missed) exactly
// once and the lookup count is fixed by the deterministic prune
// decisions.
type Result struct {
	// Frontier is the Pareto-optimal set in canonical order.
	Frontier []Point
	// Candidates is the full design-space size; Evaluated is how many
	// the search actually scored; Pruned is how many were skipped by
	// slab dominance bounds (Evaluated + Pruned == Candidates).
	Candidates int
	Evaluated  int
	Pruned     int
	// Feasible counts evaluated candidates that passed the degenerate
	// and budget guards.
	Feasible int
	// Slabs is the number of (CPU × packaging × fabric) subspaces;
	// SlabsPruned how many were skipped wholesale.
	Slabs       int
	SlabsPruned int
	// MemoHits/MemoMisses are the network-solve cache counters.
	MemoHits   uint64
	MemoMisses uint64
}

// slabBound is the optimistic objective vector of one slab: no design
// in the slab can beat any component. ToPPeR is bounded below by
// acquisition-only cost at perfect efficiency; perf/watt by the bare
// node draw (plus the cooling tax) at perfect efficiency; perf/space
// by a full rack of nodes at perfect efficiency.
type slabBound struct {
	ci, ki, fi int
	topperLB   float64
	ppwUB      float64
	ppsUB      float64
}

func (g *Grid) slabBoundAt(ci, ki, fi int) slabBound {
	b := slabBound{ci: ci, ki: ki, fi: fi}
	cp := &g.CPUs[ci]
	pk := &g.Packs[ki]
	fb := &g.Fabrics[fi]
	if !(cp.MflopsPerCPU > 0) || !(cp.Node.WattsLoad > 0) {
		// Degenerate slab: nothing in it is feasible, so its bound is
		// the worst possible vector and any frontier point prunes it.
		b.topperLB = math.Inf(1)
		return b
	}
	// TCO ≥ acquisition = p·(node + port); Mflops ≤ p·rate·1 (eff ≤ 1).
	b.topperLB = (cp.AcqPerNodeUSD + fb.PortCostUSD) / cp.MflopsPerCPU
	coolF := 1.0
	if cp.Node.RequiresActiveCooling {
		coolF = 1.5
	}
	// Gflops/kW ≤ rate/(watts·cooling): chassis overhead only lowers it.
	b.ppwUB = cp.MflopsPerCPU / (cp.Node.WattsLoad * coolF)
	// Mflops/ft² ≤ a full rack at perfect efficiency. The chassis-per-
	// rack clamp mirrors Cluster.Racks so the bound stays an upper
	// bound even for chassis taller than the rack.
	chassisPerRack := pk.Pack.RackU / pk.Pack.ChassisU
	if chassisPerRack < 1 {
		chassisPerRack = 1
	}
	b.ppsUB = cp.MflopsPerCPU * float64(chassisPerRack*pk.Pack.NodesPerChassis) / pk.Pack.FootprintPerRack
	return b
}

// strictlyBeats reports whether some frontier point is strictly better
// than the bound in every objective. Since every design in the slab is
// no better than the bound componentwise, such a point strictly
// dominates every design in the slab — none can join the frontier, so
// skipping the slab cannot change the result.
func (f *Frontier) strictlyBeats(b slabBound) bool {
	for i := range f.pts {
		p := &f.pts[i]
		if p.ToPPeR < b.topperLB && p.PerfPerWatt > b.ppwUB && p.PerfPerSpace > b.ppsUB {
			return true
		}
	}
	return false
}

// chunkState is one chunk's private accumulation; merged serially in
// chunk order after the parallel phase.
type chunkState struct {
	fr       Frontier
	feasible int
}

// Optimize runs the design-space search on the process pool and
// returns the Pareto frontier plus telemetry. The frontier is
// bit-identical at any pool width, and to exhaustive enumeration.
func Optimize(g *Grid) (*Result, error) {
	res, _, err := search(g)
	return res, err
}

// search is Optimize, also returning the memo the search filled.
func search(g *Grid) (*Result, *Memo, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	// Fix the width once: evals is indexed by worker.
	pool := par.New(par.Workers())
	memo := NewMemo(g)
	evals := make([]*Evaluator, pool.Width())
	for i := range evals {
		evals[i] = NewEvaluator(g, memo)
	}

	// Slabs in ascending order of their ToPPeR lower bound (ties by
	// enumeration order): evaluating the most promising subspaces
	// first seeds the frontier with strong points, which is what lets
	// later bounds prune. The order affects only how much is pruned,
	// never the frontier (membership is order-independent).
	nf, nn, na := len(g.Fabrics), len(g.Nodes), len(g.Ambients)
	slabs := make([]slabBound, 0, len(g.CPUs)*len(g.Packs)*nf)
	for ci := range g.CPUs {
		for ki := range g.Packs {
			for fi := range g.Fabrics {
				slabs = append(slabs, g.slabBoundAt(ci, ki, fi))
			}
		}
	}
	sort.SliceStable(slabs, func(i, j int) bool { return slabs[i].topperLB < slabs[j].topperLB })

	res := &Result{Candidates: g.Candidates(), Slabs: len(slabs)}
	slabSize := nn * na
	var front Frontier
	chunks := par.NumChunks(slabSize, searchGrain)
	states := make([]chunkState, chunks)
	for _, sb := range slabs {
		if front.strictlyBeats(sb) {
			res.Pruned += slabSize
			res.SlabsPruned++
			continue
		}
		for c := range states {
			states[c].fr.pts = states[c].fr.pts[:0]
			states[c].feasible = 0
		}
		ci, ki, fi := sb.ci, sb.ki, sb.fi
		pool.ForChunksWorker(slabSize, searchGrain, func(w, c, lo, hi int) {
			ev := evals[w]
			st := &states[c]
			var pt Point
			for i := lo; i < hi; i++ {
				if ev.Eval(ci, ki, fi, i/na, i%na, &pt) {
					st.feasible++
					st.fr.Insert(pt)
				}
			}
		})
		res.Evaluated += slabSize
		for c := range states {
			res.Feasible += states[c].feasible
			front.Merge(&states[c].fr)
		}
	}

	res.Frontier = front.Sorted()
	res.MemoHits = memo.Hits()
	res.MemoMisses = memo.Misses()
	return res, memo, nil
}

// MemoHitRate returns hits/(hits+misses), 0 when no lookups happened.
func (r *Result) MemoHitRate() float64 {
	total := r.MemoHits + r.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(r.MemoHits) / float64(total)
}
