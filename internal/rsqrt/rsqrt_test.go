package rsqrt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMath(t *testing.T) {
	if got := Math(4); got != 0.5 {
		t.Fatalf("Math(4) = %v, want 0.5", got)
	}
	if got := Math(1); got != 1 {
		t.Fatalf("Math(1) = %v, want 1", got)
	}
}

func TestNewKarpParamValidation(t *testing.T) {
	bad := [][3]int{{1, 2, 2}, {13, 2, 2}, {7, -1, 2}, {7, 5, 2}, {7, 2, -1}, {7, 2, 5}}
	for _, c := range bad {
		if _, err := NewKarp(c[0], c[1], c[2]); err == nil {
			t.Errorf("NewKarp(%v) accepted", c)
		}
	}
	if _, err := NewKarp(7, 2, 2); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestKarpDefaultFullPrecision(t *testing.T) {
	k := MustKarp(7, 2, 2)
	if err := k.Rsqrt(2); err == 0 {
		t.Fatal("zero result")
	}
	worst := k.MaxRelError(1e-6, 1e6, 20000)
	if worst > 1e-14 {
		t.Fatalf("default Karp max rel error %g, want ≤ 1e-14", worst)
	}
}

func TestKarpExactValues(t *testing.T) {
	k := MustKarp(7, 2, 2)
	cases := []struct{ x, want float64 }{
		{1, 1}, {4, 0.5}, {16, 0.25}, {0.25, 2}, {2, 1 / math.Sqrt2},
		{1e10, 1e-5}, {1e-10, 1e5}, {3, 1 / math.Sqrt(3)},
	}
	for _, c := range cases {
		got := k.Rsqrt(c.x)
		if math.Abs(got-c.want)/c.want > 1e-14 {
			t.Errorf("Rsqrt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestKarpSeedAccuracyWithoutNR(t *testing.T) {
	// Table + Chebyshev alone (no NR) must land within ~1e-6 — the
	// precision Karp's paper targets before refinement.
	k := MustKarp(7, 2, 0)
	worst := k.MaxRelError(0.5, 8, 10000)
	if worst > 1e-6 {
		t.Fatalf("seed max rel error %g, want ≤ 1e-6", worst)
	}
}

func TestKarpEachNRIterationSquaresError(t *testing.T) {
	// Newton–Raphson roughly squares the relative error per step.
	e0 := MustKarp(5, 1, 0).MaxRelError(1, 4, 4000)
	e1 := MustKarp(5, 1, 1).MaxRelError(1, 4, 4000)
	e2 := MustKarp(5, 1, 2).MaxRelError(1, 4, 4000)
	if !(e1 < e0*e0*10 && e1 < e0/100) {
		t.Fatalf("1 NR step: %g → %g, expected quadratic convergence", e0, e1)
	}
	if e2 >= e1 {
		t.Fatalf("2nd NR step did not improve: %g → %g", e1, e2)
	}
}

func TestKarpTableSizeImprovesSeed(t *testing.T) {
	eSmall := MustKarp(3, 1, 0).MaxRelError(1, 4, 4000)
	eBig := MustKarp(9, 1, 0).MaxRelError(1, 4, 4000)
	if eBig >= eSmall {
		t.Fatalf("bigger table did not help: %g vs %g", eSmall, eBig)
	}
}

func TestKarpChebDegreeImprovesSeed(t *testing.T) {
	e0 := MustKarp(5, 0, 0).MaxRelError(1, 4, 4000)
	e2 := MustKarp(5, 2, 0).MaxRelError(1, 4, 4000)
	if e2 >= e0/10 {
		t.Fatalf("degree-2 Chebyshev did not help enough: %g vs %g", e0, e2)
	}
}

func TestKarpPropertyAgainstMath(t *testing.T) {
	k := MustKarp(7, 2, 2)
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		// Keep within the normal range the kernel feeds.
		if x < 1e-300 || x > 1e300 {
			return true
		}
		want := 1 / math.Sqrt(x)
		got := k.Rsqrt(x)
		return math.Abs(got-want)/want <= 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestKarpOddEvenExponents(t *testing.T) {
	// Exponent parity handling: check values straddling powers of two,
	// including negative exponents (floor-division path).
	k := MustKarp(7, 2, 2)
	for _, x := range []float64{0.9, 1.1, 1.9, 2.1, 3.9, 4.1, 0.49, 0.51, 0.24, 0.26, 7.99, 8.01} {
		want := 1 / math.Sqrt(x)
		got := k.Rsqrt(x)
		if math.Abs(got-want)/want > 1e-14 {
			t.Errorf("Rsqrt(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestKarpSubnormalFallback(t *testing.T) {
	k := MustKarp(7, 2, 2)
	x := 1e-320 // subnormal
	want := 1 / math.Sqrt(x)
	got := k.Rsqrt(x)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("subnormal fallback Rsqrt(%g) = %v, want %v", x, got, want)
	}
}

func TestFlopsPerCall(t *testing.T) {
	k := MustKarp(7, 2, 2)
	if got := k.FlopsPerCall(); got != 2*2+3+4*2 {
		t.Fatalf("FlopsPerCall = %d, want 15", got)
	}
	if MustKarp(7, 0, 0).FlopsPerCall() != 3 {
		t.Fatal("FlopsPerCall for bare table lookup wrong")
	}
}

// TestTableEntries checks the table's shape: 2^tableBits intervals per
// exponent parity, each holding chebDeg+1 coefficients.
func TestTableEntries(t *testing.T) {
	for _, c := range []struct{ bits, deg, intervals int }{{7, 2, 256}, {6, 1, 128}} {
		k := MustKarp(c.bits, c.deg, 3)
		if got := len(k.coeffs) / (c.deg + 1); got != c.intervals {
			t.Fatalf("MustKarp(%d, %d, 3) has %d table intervals, want %d", c.bits, c.deg, got, c.intervals)
		}
	}
}
