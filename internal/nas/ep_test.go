package nas

import (
	"math"
	"math/rand"
	"testing"
)

// epPin is the exact output of one epCompute call, as float64 bits.
type epPin struct {
	name         string
	first, count uint64
	sx, sy       uint64
	pairs        uint64
	q            [10]uint64
}

// epPins are exact epCompute outputs: the class S stream [0, 2^24),
// the class W stream [0, 2^25) that Table 3 runs, and the slices ranks
// 0, 11 and 23 compute in a p=24 world (ParallelEP's split r·2^24/24),
// whose lengths are not multiples of the batch. The values were
// recorded from the Go loops, before the lane kernels; the class S and
// rank values first from the one-pair-at-a-time loop that the batched
// kernel replaced.
var epPins = []epPin{
	{"class S", 0, 1 << 24, 0xc0a95fab5782f16c, 0xc0bb2e683649f2d6, 0x416921c8a0000000,
		[10]uint64{0x41576c9940000000, 0x41565fd500000000, 0x4130ca4900000000, 0x40f0bc2000000000, 0x4099c00000000000, 0x4031000000000000, 0, 0, 0, 0}},
	{"class W", 0, 1 << 25, 0xc0a65ea3b3ddc3f8, 0xc0b8b00dbdea036d, 0x4179224510000000,
		[10]uint64{0x41676cdd00000000, 0x41665f6380000000, 0x4140ce3300000000, 0x4100c4c000000000, 0x40aa560000000000, 0x4042000000000000, 0, 0, 0, 0}},
	{"p24 rank 0", 0, 699050, 0x40800c51b9e46aa2, 0x404e3d6e79a782f9, 0x4120bfba00000000,
		[10]uint64{0x410f4d8800000000, 0x410dbe2000000000, 0x40e6610000000000, 0x40a6340000000000, 0x4051800000000000, 0, 0, 0, 0, 0}},
	{"p24 rank 11", 7689557, 699051, 0xc0a026f510b0a08f, 0xc08def3c0a92f93a, 0x4120c16000000000,
		[10]uint64{0x410f3e5800000000, 0x410dd2a000000000, 0x40e6662000000000, 0x40a62a0000000000, 0x4052400000000000, 0x4000000000000000, 0, 0, 0, 0}},
	{"p24 rank 23", 16078165, 699051, 0xc075fd5204b5db71, 0x4083b2bdef0f20c7, 0x4120c1dc00000000,
		[10]uint64{0x410f3e5000000000, 0x410dd4c800000000, 0x40e65ee000000000, 0x40a6a20000000000, 0x4050c00000000000, 0, 0, 0, 0, 0}},
}

// pinOf records one epCompute output as a pin.
func pinOf(name string, first, count uint64, out EPOut) epPin {
	p := epPin{name: name, first: first, count: count,
		sx: math.Float64bits(out.SX), sy: math.Float64bits(out.SY), pairs: math.Float64bits(out.Pairs)}
	for i, q := range out.Q {
		p.q[i] = math.Float64bits(q)
	}
	return p
}

// TestEPExactPins pins epCompute, under the host's dispatch, bit for
// bit (TestEPLanesMatchGo runs the other one).
func TestEPExactPins(t *testing.T) {
	for _, p := range epPins {
		if got := pinOf(p.name, p.first, p.count, epCompute(epSeed, p.first, p.count)); got != p {
			t.Errorf("%s: got %+v, want %+v", p.name, got, p)
		}
	}
}

// epBinRef is the annulus as the NPB loop writes it: the float max of
// the two magnitudes, truncated, capped at 9.
func epBinRef(gx, gy float64) int {
	l := int(math.Max(math.Abs(gx), math.Abs(gy)))
	if l > 9 {
		l = 9
	}
	return l
}

// TestEPBinMatchesFloatMax checks the integer-max bin against the float
// max on the inputs epCompute can produce. Accepted pairs have
// x, y = 2u−1 with u a multiple of 2^-46 in (0,1), so a nonzero |x| or
// |y| is at least 2^-45 and an accepted t = x²+y² is 0 or at least
// 2^-90. For t > 0 the factor f = sqrt(−2 ln t / t) is then below 4e14,
// so gx = x·f and gy = y·f are both finite. Only t = 0 (x = y = 0)
// makes f = +Inf and both lanes 0·Inf = NaN. One NaN lane beside a
// number, and ±Inf in either lane, never occur; those are exactly the
// mixes where math.Max's special cases (Max(+Inf, NaN) = +Inf) and the
// bit max (which orders NaN above +Inf) part ways.
func TestEPBinMatchesFloatMax(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-45,
		0.5, math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5,
		math.Nextafter(2, 0), 2, 3.999999, 4, 7.25, math.Nextafter(9, 0), 9,
		math.Nextafter(9, 10), 9.5, 10, 1e6, 4e14, 1e300, math.MaxFloat64,
	}
	check := func(gx, gy float64) {
		t.Helper()
		if got, want := epBin(gx, gy), epBinRef(gx, gy); got != want {
			t.Errorf("epBin(%v, %v) = %d, float max gives %d", gx, gy, got, want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
			check(-a, b)
			check(a, -b)
			check(-a, -b)
		}
	}
	// The t = 0 pair, computed as epCompute does.
	x, y, t0 := 0.0, 0.0, 0.0
	f := math.Sqrt(-2 * math.Log(t0) / t0)
	if gx, gy := x*f, y*f; !math.IsNaN(gx) || !math.IsNaN(gy) {
		t.Fatalf("t = 0 gives lanes (%v, %v), want NaN in both", gx, gy)
	} else {
		check(gx, gy)
	}
	// Seeded finite inputs: Gaussian magnitudes around the bins, and raw
	// bit patterns over the whole finite range.
	rng := rand.New(rand.NewSource(7))
	for range 200000 {
		check(rng.NormFloat64()*3, rng.NormFloat64()*3)
		a, b := math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		if !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(b) && !math.IsInf(b, 0) {
			check(a, b)
		}
	}
}
