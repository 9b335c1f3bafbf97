package nas

import (
	"math"
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

// epBatch is how many pairs epCompute generates per batch. Its three
// batch arrays live on the calling goroutine's stack: at 64 pairs they
// fit a rank goroutine's initial stack, while 128 doubles it and grew
// TestLargePEP's p=4096 footprint from 29 MB to 45 MB for no speed gain.
// It is a multiple of 4, so the lane kernels' groups of four never run
// past an array's end and the arrays need no slack entries.
const epBatch = 64

// epCompute generates pairs [first, first+count) of the global pair
// sequence. The generator is skipped to 2·first steps, so parallel ranks
// produce exactly the serial stream's slices.
//
// It works in batches of three passes:
//  1. generate (epGenerate): step the LCG, form each pair's x, y and
//     t = x²+y², and pack the accepted pairs (t <= 1) at the front of
//     the batch arrays in pair order;
//  2. transform (epFactors): replace each accepted t by the polar
//     factor sqrt(−2 ln t / t);
//  3. fold: add the Gaussian deviates to the sums in pair order and
//     count the annuli.
//
// On AVX2 hosts the first two passes run four lanes at a time in
// ep_amd64.s; the fold is always this sequential Go loop. Each pair's
// values, and the order of the sums, are those of a pair-at-a-time
// loop. The counts are integers, converted to float64 once at the end,
// which is exact below 2^53.
func epCompute(seed uint64, first, count uint64) EPOut {
	g := NewLCG(seed)
	g.Skip(2 * first)
	var sx, sy float64
	var q [10]uint64
	var pairs uint64
	var xs, ys, fs [epBatch]float64
	for count > 0 {
		batch := int(min(count, epBatch))
		count -= uint64(batch)
		n := epGenerate(g, batch, &xs, &ys, &fs)
		epFactors(&fs, n)
		for i := range n {
			gx := xs[i] * fs[i]
			gy := ys[i] * fs[i]
			sx += gx
			sy += gy
			q[epBin(gx, gy)]++
		}
		pairs += uint64(n)
	}
	out := EPOut{SX: sx, SY: sy, Pairs: float64(pairs)}
	for i, c := range q {
		out.Q[i] = float64(c)
	}
	return out
}

// epGenerate is epCompute's first pass over the next batch pairs of g.
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

// epFactors is epCompute's second pass: it replaces ts[:n] by the polar
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
// branch. It matches math.Max on every pair epCompute forms
// (TestEPBinMatchesFloatMax).
func epBin(gx, gy float64) int {
	m := max(math.Float64bits(math.Abs(gx)), math.Float64bits(math.Abs(gy)))
	return min(int(math.Float64frombits(m)), 9)
}
