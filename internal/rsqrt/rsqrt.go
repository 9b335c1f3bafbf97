// Package rsqrt builds the lookup table of the "Karp sqrt" path, one of
// the two reciprocal-square-root code paths the paper's gravitational
// microkernel benchmark compares (§3.2). Karp's algorithm [A. Karp,
// "Speeding Up N-body Calculations on Machines Lacking a Hardware
// Square Root", Scientific Programming 1(2)] seeds 1/sqrt(x) from a table
// indexed by the floating-point exponent parity and high mantissa bits,
// evaluates the interval's Chebyshev interpolant, and refines with
// Newton–Raphson iteration to full precision; the other path is the
// hardware square root and a divide.
//
// The Karp path trades the long-latency sqrt/div instructions for a short
// sequence of multiplies and adds — exactly the trade the paper's Table 1
// measures across five processors. MonomialTable is what the ISA kernel
// (internal/kernels) runs; the package's tests carry a Go reference
// evaluator of the same algorithm and its accuracy analysis.
package rsqrt

import "math"

// chebFit fits f on [a,b] with a degree-d Chebyshev interpolant and
// returns monomial coefficients over u ∈ [-1,1].
func chebFit(a, b float64, d int, f func(float64) float64) []float64 {
	n := d + 1
	// Chebyshev nodes and values.
	nodes := make([]float64, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		u := math.Cos(math.Pi * (float64(i) + 0.5) / float64(n))
		nodes[i] = u
		t := a + (b-a)*(u+1)/2
		vals[i] = f(t)
	}
	// Newton divided differences → monomial basis (n is tiny: ≤5).
	dd := make([]float64, n)
	copy(dd, vals)
	for lvl := 1; lvl < n; lvl++ {
		for i := n - 1; i >= lvl; i-- {
			dd[i] = (dd[i] - dd[i-1]) / (nodes[i] - nodes[i-lvl])
		}
	}
	// Expand Newton form to monomials.
	coeffs := make([]float64, n)
	poly := make([]float64, 1, n) // running product Π(u - nodes[i])
	poly[0] = 1
	for i := 0; i < n; i++ {
		for j := 0; j < len(poly); j++ {
			coeffs[j] += dd[i] * poly[j]
		}
		if i < n-1 {
			next := make([]float64, len(poly)+1)
			for j := 0; j < len(poly); j++ {
				next[j] -= nodes[i] * poly[j]
				next[j+1] += poly[j]
			}
			poly = next
		}
	}
	return coeffs
}
