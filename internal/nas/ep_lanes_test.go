package nas

import (
	"math"
	"testing"

	"repro/internal/hostcpu"
)

// withEPLanes runs fn with EP's lane kernels switched on or off.
func withEPLanes(lanes bool, fn func()) {
	saved := epLanes
	epLanes = lanes
	defer func() { epLanes = saved }()
	fn()
}

// epAccepted is the accepted part of a pair stream: x, y and t of each
// pair with t <= 1, in pair order, and the seed after the last pair.
type epAccepted struct {
	x, y, t []uint64
	seed    uint64
}

func (a *epAccepted) add(x, y, t float64) {
	a.x = append(a.x, math.Float64bits(x))
	a.y = append(a.y, math.Float64bits(y))
	a.t = append(a.t, math.Float64bits(t))
}

func (a *epAccepted) equal(b *epAccepted) bool {
	if a.seed != b.seed || len(a.t) != len(b.t) {
		return false
	}
	for i := range a.t {
		if a.x[i] != b.x[i] || a.y[i] != b.y[i] || a.t[i] != b.t[i] {
			return false
		}
	}
	return true
}

// epStreamRef generates pairs [first, first+count) one LCG.Next at a
// time, as the NPB loop does.
func epStreamRef(first, count uint64) *epAccepted {
	g := NewLCG(epSeed)
	g.Skip(2 * first)
	var a epAccepted
	for range count {
		x := 2*g.Next() - 1
		y := 2*g.Next() - 1
		if t := x*x + y*y; t <= 1 {
			a.add(x, y, t)
		}
	}
	a.seed = g.Seed()
	return &a
}

// epStreamBatched generates the same pairs through epGenerate, in
// epCompute's batches, under the current dispatch.
func epStreamBatched(first, count uint64) *epAccepted {
	g := NewLCG(epSeed)
	g.Skip(2 * first)
	var a epAccepted
	var xs, ys, ts [epBatch]float64
	for count > 0 {
		batch := int(min(count, epBatch))
		count -= uint64(batch)
		n := epGenerate(g, batch, &xs, &ys, &ts)
		for i := range n {
			a.add(xs[i], ys[i], ts[i])
		}
	}
	a.seed = g.Seed()
	return &a
}

// TestEPLanesMatchGo checks EP's lane kernels against the Go code they
// replace, bit for bit: the lane log against math.Log and the polar
// factor against math.Sqrt(-2*math.Log(t)/t) on edge cases, the factor
// on the class S stream's accepted t too, the lane generator against
// LCG.Next, and whole epCompute ranges under both dispatches.
func TestEPLanesMatchGo(t *testing.T) {
	if !hostcpu.HasAVX2() {
		t.Skip("no AVX2 lane kernels on this host")
	}
	if !epLanes {
		t.Fatal("AVX2 host, but EP's lane kernels are off")
	}

	// √2/2's mantissa is where log_amd64.s reduces (f1 <= √2/2) and
	// log.go does not (f1 < √2/2). Take it and its two neighbours at
	// every exponent, 0 (a denormal) included, and the other classes.
	var edges []float64
	for exp := range uint64(0x7FF) {
		b := exp<<52 | 0x6A09E667F3BCD
		edges = append(edges, math.Float64frombits(b-1), math.Float64frombits(b), math.Float64frombits(b+1))
	}
	edges = append(edges, 0, math.Copysign(0, -1), -1, -0.5, -math.SmallestNonzeroFloat64,
		math.Inf(-1), math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.Float64frombits(0x0000000123456789), 0x1p-1022, 0x1p-90, 0x1p-45, 0.5, 1,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 2, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000))

	t.Run("log", func(t *testing.T) {
		checkLanes(t, "log", edges, func(buf *[epBatch]float64, n int) { epLog4(buf, (n+3)/4) }, math.Log)
	})

	t.Run("factor", func(t *testing.T) {
		factor := func(v float64) float64 { return math.Sqrt(-2 * math.Log(v) / v) }
		checkLanes(t, "factor", edges, epFactors, factor)
		// The class S stream's accepted t.
		acc := epStreamRef(0, 1<<24)
		ts := make([]float64, len(acc.t))
		for i, b := range acc.t {
			ts[i] = math.Float64frombits(b)
		}
		checkLanes(t, "factor", ts, epFactors, factor)
	})

	t.Run("generate", func(t *testing.T) {
		var lengths []uint64
		for n := range uint64(10) {
			lengths = append(lengths, n)
		}
		lengths = append(lengths, 63, 64, 65, 699051)
		for _, first := range []uint64{0, 1, 2, 3, 5, 7689557, 16078165} {
			for _, count := range lengths {
				want := epStreamRef(first, count)
				if got := epStreamBatched(first, count); !got.equal(want) {
					t.Errorf("pairs [%d, %d+%d): lane stream differs from LCG.Next's (%d vs %d accepted, seed %#x vs %#x)",
						first, first, count, len(got.t), len(want.t), got.seed, want.seed)
				}
			}
		}
	})

	t.Run("epCompute", func(t *testing.T) {
		for _, p := range epPins {
			var goOut EPOut
			withEPLanes(false, func() { goOut = epCompute(epSeed, p.first, p.count) })
			lanes := pinOf(p.name, p.first, p.count, epCompute(epSeed, p.first, p.count))
			if want := pinOf(p.name, p.first, p.count, goOut); lanes != want {
				t.Errorf("%s: lanes %+v, Go %+v", p.name, lanes, want)
			}
		}
	})
}

// checkLanes runs in through a lane kernel in batches and compares
// each result with the Go function's bits.
func checkLanes(t *testing.T, name string, in []float64, lanes func(*[epBatch]float64, int), ref func(float64) float64) {
	t.Helper()
	var buf [epBatch]float64
	for start := 0; start < len(in); start += epBatch {
		n := copy(buf[:], in[start:])
		lanes(&buf, n)
		for i, v := range in[start : start+n] {
			if want := ref(v); math.Float64bits(buf[i]) != math.Float64bits(want) {
				t.Errorf("%s(%v = %#x): lanes %#x, Go %#x", name, v, math.Float64bits(v),
					math.Float64bits(buf[i]), math.Float64bits(want))
			}
		}
	}
}
