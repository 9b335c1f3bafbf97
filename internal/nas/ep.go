package nas

import (
	"fmt"
	"math"
	"slices"
)

// EP is the embarrassingly parallel kernel: generate pairs of uniform
// deviates with the NPB generator, transform the pairs that land inside
// the unit circle into Gaussian deviates by the Marsaglia polar method,
// and tally sums and annulus counts. The NPB verification values for the
// sums are checked for classes S and W.
type EP struct{}

// NewEP returns the kernel.
func NewEP() *EP { return &EP{} }

// Name implements Kernel.
func (*EP) Name() string { return "EP" }

// epSeed is the NPB seed for EP.
const epSeed = 271828183

// epLogM returns M where the kernel generates 2^M pairs.
func epLogM(c Class) (int, bool) {
	switch c {
	case ClassS:
		return 24, true
	case ClassW:
		return 25, true
	case ClassA:
		return 28, true
	}
	return 0, false
}

// EPOut holds EP's full outputs (exported for the parallel version and
// tests).
type EPOut struct {
	SX, SY float64
	Q      [10]float64 // annulus counts
	Pairs  float64     // accepted pairs
}

// Run implements Kernel.
func (e *EP) Run(class Class) (*Result, error) {
	m, ok := epLogM(class)
	if !ok {
		return nil, ErrClass("EP", class)
	}
	out := epCompute(epSeed, 0, uint64(1)<<uint(m))
	return e.finish(class, m, out)
}

func (e *EP) finish(class Class, m int, out EPOut) (*Result, error) {
	res := &Result{Kernel: "EP", Class: class, Checksum: out.SX + out.SY}
	// NPB reference sums (ep.f verify): classes S and W.
	switch class {
	case ClassS:
		res.Verified = closeTo(out.SX, -3.247834652034740e3) && closeTo(out.SY, -6.958407078382297e3)
	case ClassW:
		res.Verified = closeTo(out.SX, -2.863319731645753e3) && closeTo(out.SY, -6.320053679109499e3)
	default:
		res.Verified = true // A: moment sanity enforced in tests
	}

	n := float64(uint64(1) << uint(m))
	// NPB counts EP's nominal ops as ~25 flops per generated pair
	// (uniforms + transform, amortized over the acceptance rate).
	res.Ops = 25 * n
	// Dynamic mix: 2 LCG steps (integer multiply + scale) per pair, the
	// polar test, and for the ~π/4 accepted fraction a log, sqrt, two
	// multiplies and the binning.
	acc := out.Pairs
	res.Mix = mixFromCounts(
		uint64(6*n+4*acc),  // fpAdd-class (adds, compares, converts)
		uint64(6*n+26*acc), // fpMul (scaling, t2 products, log/sqrt series mults)
		uint64(acc),        // fpDiv (−2 ln t / t)
		uint64(acc),        // fpSqrt
		uint64(2*n),        // loads
		uint64(acc),        // stores
		uint64(4*n+2*acc),  // int ALU (LCG, loop)
		uint64(n),          // branches
	)
	return res, nil
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-8*math.Abs(want)
}

// epBatch is how many pairs the fold generates per batch. Its three
// batch arrays live on the calling goroutine's stack: at 64 pairs they
// fit a rank goroutine's initial stack, while 128 doubles it and grew
// TestLargePEP's p=4096 footprint from 29 MB to 45 MB for no speed gain.
// It is a multiple of 4, so the lane kernels' groups of four never run
// past an array's end and the arrays need no slack entries.
const epBatch = 64

// epCompute returns the EPOut of pairs [first, first+count) of the
// global pair sequence: epRanges with one range.
func epCompute(seed uint64, first, count uint64) EPOut {
	return epRanges(seed, []epRange{{first, first + count}})[0]
}

// EPPartitions returns the EPOut of every rank of every partition of
// class's pair stream: outs[j][r] is what rank r of a ranks[j]-rank
// ParallelEP computes, bit for bit, and all of them come from one pass
// over the stream (epRanges).
func EPPartitions(class Class, ranks []int) ([][]EPOut, error) {
	m, ok := epLogM(class)
	if !ok {
		return nil, ErrClass("EP", class)
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("nas: EP partitions: no rank counts")
	}
	for _, p := range ranks {
		if p <= 0 {
			return nil, fmt.Errorf("nas: EP partition into %d ranks", p)
		}
	}
	return epPartitions(epSeed, uint64(1)<<uint(m), ranks), nil
}

// epPartitions splits pairs [0, total) among each ranks[j] as
// ParallelEP does (epRankRange) and folds every rank in one pass.
func epPartitions(seed, total uint64, ranks []int) [][]EPOut {
	var ranges []epRange
	for _, p := range ranks {
		for r := range p {
			ranges = append(ranges, epRankRange(total, p, r))
		}
	}
	flat := epRanges(seed, ranges)
	outs := make([][]EPOut, len(ranks))
	for j, p := range ranks {
		outs[j], flat = flat[:p:p], flat[p:]
	}
	return outs
}

// epRange is the half-open range [first, end) of the pair sequence.
type epRange struct{ first, end uint64 }

// epRankRange is rank r's share of pairs [0, total) in a p-rank world.
func epRankRange(total uint64, p, r int) epRange {
	return epRange{uint64(r) * total / uint64(p), uint64(r+1) * total / uint64(p)}
}

// epChain is the fold of the pair sequence from one cut on: the sums
// from zero, and the running counts at the cut.
type epChain struct {
	sx, sy float64
	q0     [10]uint64
	pairs0 uint64
	last   int // the last cut a range starting here ends at
}

// epRanges returns the EPOut of each range of the pair sequence from
// seed, in one pass over the union of the ranges.
//
// A range's EPOut is a fold in pair order that starts from zero, so the
// pass cuts the sequence at every range's first and end pair. At each
// cut where a range starts it opens a chain, and each generated pair is
// added to the sums of every open chain: a range's sums are its start
// chain's at its end, the same adds in the same order as a pass over
// the range alone. Ranges that share a start share a chain. The annulus
// and pair counts are integers, kept once as running totals over the
// sequence; a range's counts are the difference of the totals at its
// end and its start, which is exact.
//
// Between two cuts the pairs are generated in batches of three passes:
//  1. generate (epGenerate): step the LCG, form each pair's x, y and
//     t = x²+y², and pack the accepted pairs (t <= 1) at the front of
//     the batch arrays in pair order;
//  2. transform (epFactors): replace each accepted t by the polar
//     factor sqrt(−2 ln t / t);
//  3. fold (epFolder.fold): form the Gaussian deviates, count their annuli
//     and add them to each open chain's sums in pair order.
//
// On AVX2 hosts the first two passes run four lanes at a time in
// ep_amd64.s; the fold is always Go. Each pair's values, and the order
// of each chain's sums, are those of a pair-at-a-time loop. Stretches
// no range covers are skipped with a generator jump, as are the 2·first
// steps before the first range, so a range's pairs are exactly the
// serial stream's. The counts are converted to float64 once at the
// end, which is exact below 2^53.
func epRanges(seed uint64, ranges []epRange) []EPOut {
	outs := make([]EPOut, len(ranges))
	if len(ranges) == 0 {
		return outs
	}
	cuts := make([]uint64, 0, 2*len(ranges))
	for _, rg := range ranges {
		cuts = append(cuts, rg.first, rg.end)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	cutOf := func(v uint64) int {
		c, _ := slices.BinarySearch(cuts, v)
		return c
	}
	// chains[c] is the chain from cuts[c]; ends[c] lists the ranges
	// ending at cuts[c], and starts[k] range k's start cut.
	chains := make([]epChain, len(cuts))
	ends := make([][]int, len(cuts))
	starts := make([]int, len(ranges))
	for k, rg := range ranges {
		a, b := cutOf(rg.first), cutOf(rg.end)
		starts[k] = a
		chains[a].last = max(chains[a].last, b)
		ends[b] = append(ends[b], k)
	}

	g := NewLCG(seed)
	g.Skip(2 * cuts[0])
	var f epFolder
	var live []int // the open chains
	for c := range cuts {
		chains[c].q0, chains[c].pairs0 = f.q, f.pairs
		for _, k := range ends[c] {
			ch := &chains[starts[k]]
			out := EPOut{SX: ch.sx, SY: ch.sy, Pairs: float64(f.pairs - ch.pairs0)}
			for i := range out.Q {
				out.Q[i] = float64(f.q[i] - ch.q0[i])
			}
			outs[k] = out
		}
		live = slices.DeleteFunc(live, func(l int) bool { return chains[l].last <= c })
		if chains[c].last > c {
			live = append(live, c)
		}
		if c+1 == len(cuts) {
			break
		}
		if n := cuts[c+1] - cuts[c]; len(live) == 0 {
			g.Skip(2 * n)
		} else {
			f.fold(g, n, chains, live)
		}
	}
	return outs
}

// epFolder holds a pass's running annulus and pair counts.
type epFolder struct {
	q     [10]uint64
	pairs uint64
}

// fold generates the next count pairs of g in batches and adds each
// accepted pair to the sums of the chains listed in live, and to f's
// counts.
func (f *epFolder) fold(g *LCG, count uint64, chains []epChain, live []int) {
	var xs, ys, fs [epBatch]float64
	var spare epChain
	first, rest := &chains[live[0]], live[1:]
	for count > 0 {
		batch := int(min(count, epBatch))
		count -= uint64(batch)
		n := epGenerate(g, batch, &xs, &ys, &fs)
		epFactors(&fs, n)
		// The first chain's adds ride the pass that forms and bins the
		// deviates; the deviates replace x and y for the other chains.
		gxs, gys := xs[:n], ys[:n]
		sx, sy := first.sx, first.sy
		for i, fi := range fs[:n] {
			gx, gy := gxs[i]*fi, gys[i]*fi
			sx += gx
			sy += gy
			f.q[epBin(gx, gy)]++
			gxs[i], gys[i] = gx, gy
		}
		first.sx, first.sy = sx, sy
		f.pairs += uint64(n)
		// The other chains two at a time, so their four sums' adds
		// overlap; an odd one out is paired with a throwaway chain.
		for k := 0; k < len(rest); k += 2 {
			a, b := &chains[rest[k]], &spare
			if k+1 < len(rest) {
				b = &chains[rest[k+1]]
			}
			ax, ay, bx, by := a.sx, a.sy, b.sx, b.sy
			for i, gx := range gxs {
				gy := gys[i]
				ax += gx
				ay += gy
				bx += gx
				by += gy
			}
			a.sx, a.sy, b.sx, b.sy = ax, ay, bx, by
		}
	}
}

// epGenerate is the fold's first pass over the next batch pairs of g.
// It stores each pair's x, y and t at index n of xs, ys and ts and
// advances n past the accepted ones, so the accepted pairs end packed
// at the front in pair order; it returns their count. The lanes take
// the whole groups of four, the Go loop the rest.
func epGenerate(g *LCG, batch int, xs, ys, ts *[epBatch]float64) int {
	n, lanes := 0, 0
	if epLanes {
		lanes = batch &^ 3
		n = epGen4(&g.seed, lanes/4, xs, ys, ts)
	}
	for range batch - lanes {
		x := 2*g.Next() - 1
		y := 2*g.Next() - 1
		t := x*x + y*y
		xs[n], ys[n], ts[n] = x, y, t
		if t <= 1 {
			n++
		}
	}
	return n
}

// epFactors is the fold's second pass: it replaces ts[:n] by the polar
// factor sqrt(−2 ln t / t). The lanes round n up to a whole group of
// four; the entries past n hold stale values, and nothing reads them.
func epFactors(ts *[epBatch]float64, n int) {
	if epLanes {
		epFactor4(ts, (n+3)/4)
		return
	}
	for i, t := range ts[:n] {
		ts[i] = math.Sqrt(-2 * math.Log(t) / t)
	}
}

// epBin is the annulus of a Gaussian pair, int(max(|gx|, |gy|)) capped
// at 9. Non-negative floats order like their bit patterns, so the max is
// an integer max (a conditional move) rather than a float compare and
// branch. It matches math.Max on every pair the fold forms
// (TestEPBinMatchesFloatMax).
func epBin(gx, gy float64) int {
	m := max(math.Float64bits(math.Abs(gx)), math.Float64bits(math.Abs(gy)))
	return min(int(math.Float64frombits(m)), 9)
}
