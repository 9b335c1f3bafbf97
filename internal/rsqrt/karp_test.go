package rsqrt

import (
	"fmt"
	"math"
	"testing"
)

// This file holds the Go reference evaluator of Karp's reciprocal
// square root — the algorithm MonomialTable's table serves — and its
// accuracy and cost analysis, which the tests check and
// BenchmarkKarpConfig sweeps.

// Math computes 1/sqrt(x) with the library square root (the baseline path).
func Math(x float64) float64 { return 1 / math.Sqrt(x) }

// Karp is a configured instance of Karp's reciprocal square root.
// The zero value is not usable; call NewKarp.
type Karp struct {
	tableBits int // mantissa bits indexing the table
	chebDeg   int // Chebyshev polynomial degree within an interval
	nrIters   int // Newton–Raphson refinement steps
	// coeffs holds (chebDeg+1) polynomial coefficients per interval, in
	// monomial form over the normalized coordinate u ∈ [-1, 1]. Intervals
	// are indexed by (exponent parity << tableBits) | high mantissa bits.
	coeffs []float64
}

// NewKarp builds the lookup table. tableBits in [2,12], chebDeg in [0,4],
// nrIters in [0,4].
func NewKarp(tableBits, chebDeg, nrIters int) (*Karp, error) {
	if tableBits < 2 || tableBits > 12 {
		return nil, fmt.Errorf("rsqrt: tableBits %d out of [2,12]", tableBits)
	}
	if chebDeg < 0 || chebDeg > 4 {
		return nil, fmt.Errorf("rsqrt: chebDeg %d out of [0,4]", chebDeg)
	}
	if nrIters < 0 || nrIters > 4 {
		return nil, fmt.Errorf("rsqrt: nrIters %d out of [0,4]", nrIters)
	}
	k := &Karp{tableBits: tableBits, chebDeg: chebDeg, nrIters: nrIters}
	n := 1 << tableBits
	k.coeffs = make([]float64, 2*n*(chebDeg+1))
	for parity := 0; parity < 2; parity++ {
		scale := 1.0
		if parity == 1 {
			scale = 2.0
		}
		for j := 0; j < n; j++ {
			a := scale * (1 + float64(j)/float64(n))
			b := scale * (1 + float64(j+1)/float64(n))
			c := chebFit(a, b, chebDeg, func(t float64) float64 { return 1 / math.Sqrt(t) })
			copy(k.coeffs[(parity*n+j)*(chebDeg+1):], c)
		}
	}
	return k, nil
}

// MustKarp is NewKarp that panics on bad parameters.
func MustKarp(tableBits, chebDeg, nrIters int) *Karp {
	k, err := NewKarp(tableBits, chebDeg, nrIters)
	if err != nil {
		panic(err)
	}
	return k
}

// Rsqrt computes 1/sqrt(x) for finite x > 0.
func (k *Karp) Rsqrt(x float64) float64 {
	bits := math.Float64bits(x)
	exp := int(bits>>52&0x7FF) - 1023
	mant := bits & (1<<52 - 1)
	if exp == -1023 || exp == 1024 {
		// Subnormals, zero, inf, NaN: fall back (out of scope for the
		// kernel, which feeds squared distances of well-scaled positions).
		return 1 / math.Sqrt(x)
	}
	// x = 2^exp * m, m ∈ [1,2). Split exp = 2s + p with p ∈ {0,1}:
	// 1/sqrt(x) = 2^-s / sqrt(2^p * m), and t = 2^p·m ∈ [1,4).
	p := exp & 1
	if exp < 0 {
		p = ((exp % 2) + 2) % 2
	}
	s := (exp - p) / 2

	idx := (p << k.tableBits) | int(mant>>(52-uint(k.tableBits)))
	base := idx * (k.chebDeg + 1)

	// Normalized coordinate u ∈ [-1,1] within the interval.
	n := 1 << k.tableBits
	j := idx & (n - 1)
	scale := 1.0
	if p == 1 {
		scale = 2.0
	}
	m := math.Float64frombits(1023<<52 | mant) // [1,2)
	t := scale * m
	a := scale * (1 + float64(j)/float64(n))
	b := scale * (1 + float64(j+1)/float64(n))
	u := (2*t - a - b) / (b - a)

	// Horner evaluation of the interval polynomial.
	y := k.coeffs[base+k.chebDeg]
	for d := k.chebDeg - 1; d >= 0; d-- {
		y = y*u + k.coeffs[base+d]
	}
	y = math.Ldexp(y, -s)

	// Newton–Raphson on the original argument: y ← y(3 − x·y²)/2.
	for i := 0; i < k.nrIters; i++ {
		y = y * (1.5 - 0.5*x*y*y)
	}
	return y
}

// MaxRelError scans [lo, hi) with the given number of logarithmically
// spaced samples and returns the worst relative error against the library
// path. Used by accuracy tests and the table-size ablation.
func (k *Karp) MaxRelError(lo, hi float64, samples int) float64 {
	worst := 0.0
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i < samples; i++ {
		x := math.Exp(llo + (lhi-llo)*float64(i)/float64(samples-1))
		want := 1 / math.Sqrt(x)
		got := k.Rsqrt(x)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// FlopsPerCall returns the floating-point operation count of one Karp
// evaluation under the paper's convention (adds/mults; the table load and
// bit twiddling are not flops). Used for Mflops accounting.
func (k *Karp) FlopsPerCall() int {
	// Horner: chebDeg mult+add pairs; u computation: ~3; ldexp excluded
	// (exponent manipulation); each NR step: 3 mult + 1 sub (y*y, x*, 0.5*
	// folded) = 4.
	return 2*k.chebDeg + 3 + 4*k.nrIters
}

// BenchmarkKarpConfig sweeps the Karp reciprocal-square-root
// configuration: table size, polynomial degree, Newton iterations.
func BenchmarkKarpConfig(b *testing.B) {
	cases := []struct{ bits, deg, nr int }{
		{4, 1, 2}, {7, 2, 2}, {10, 2, 1}, {7, 2, 1}, {7, 0, 3},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("bits=%d/deg=%d/nr=%d", c.bits, c.deg, c.nr), func(b *testing.B) {
			k := MustKarp(c.bits, c.deg, c.nr)
			x := 1.0
			var y float64
			for i := 0; i < b.N; i++ {
				y = k.Rsqrt(x)
				x += 0.001
				if x > 1e6 {
					x = 1
				}
			}
			_ = y
			b.ReportMetric(k.MaxRelError(0.5, 8, 2000), "max-rel-err")
			b.ReportMetric(float64(k.FlopsPerCall()), "flops/call")
		})
	}
}
