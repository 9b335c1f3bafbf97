// Package nas implements the NAS Parallel Benchmarks 2.3 kernels the
// paper's Table 3 runs: BT, SP, LU (simulated CFD applications), MG
// (multigrid Poisson), EP (embarrassingly parallel Gaussian deviates),
// and IS (integer sort). EP, IS and MG follow the NPB problem
// statements directly (including NPB's linear congruential generator);
// BT, SP and LU implement the same computational patterns (ADI
// block-tridiagonal / scalar-pentadiagonal solves, SSOR sweeps on a
// five-component grid) on manufactured problems with exact residual
// verification, since the full NPB discretizations are thousands of
// lines of Fortran whose numerics the paper's Mops comparison does not
// depend on. See DESIGN.md for the substitution note.
//
// Every kernel counts the floating-point work it performs and reports an
// operation mix, which the cpu package's calibrated models convert into
// per-processor Mops ratings.
package nas

import (
	"fmt"

	"repro/internal/isa"
)

// Class is an NPB problem class.
type Class byte

const (
	// ClassS is the sample size for quick verification.
	ClassS Class = 'S'
	// ClassW is the workstation size the paper's Table 3 reports.
	ClassW Class = 'W'
	// ClassA is the first "real" size.
	ClassA Class = 'A'
)

func (c Class) String() string { return string(c) }

// Result reports one kernel run.
type Result struct {
	Kernel   string
	Class    Class
	Verified bool
	// Ops is the nominal operation count the Mops rating divides by.
	Ops float64
	// Mix is the dynamic operation mix for the CPU timing models.
	Mix isa.Trace
	// Checksum is the kernel's verification scalar (meaning varies).
	Checksum float64
}

// Kernel is a runnable benchmark.
type Kernel interface {
	Name() string
	Run(class Class) (*Result, error)
}

// --- NPB pseudorandom generator ---

// The NPB generator: x_{k+1} = a·x_k mod 2^46, returning x·2^-46, with
// a = 5^13 and default seed 271828183. Since 2^46 divides 2^64, the
// modular product is just the low 46 bits of the wrapped 64-bit product.

const (
	// LCGMult is a = 5^13.
	LCGMult uint64 = 1220703125
	// lcgMask keeps the low 46 bits.
	lcgMask uint64 = 1<<46 - 1
	// lcgScale is 2^-46.
	lcgScale = 1.0 / (1 << 46)
)

// LCG is the NPB random stream.
type LCG struct {
	seed uint64
}

// NewLCG starts a stream at the given seed.
func NewLCG(seed uint64) *LCG { return &LCG{seed: seed & lcgMask} }

// Next returns the next uniform value in (0,1).
func (g *LCG) Next() float64 {
	g.seed = (g.seed * LCGMult) & lcgMask
	return float64(g.seed) * lcgScale
}

// Seed returns the current raw seed.
func (g *LCG) Seed() uint64 { return g.seed }

// Skip advances the stream by n steps in O(log n) (the NPB "power" jump
// used to give parallel ranks independent substreams).
func (g *LCG) Skip(n uint64) {
	mult := powMod46(LCGMult, n)
	g.seed = (g.seed * mult) & lcgMask
}

// powMod46 computes a^n mod 2^46.
func powMod46(a, n uint64) uint64 {
	result := uint64(1)
	base := a & lcgMask
	for n > 0 {
		if n&1 == 1 {
			result = (result * base) & lcgMask
		}
		base = (base * base) & lcgMask
		n >>= 1
	}
	return result
}

// mixFromCounts builds an operation mix from aggregate counts; kernels
// use it to summarize their dynamic work for the timing models.
func mixFromCounts(fpAdd, fpMul, fpDiv, fpSqrt, load, store, intALU, branch uint64) isa.Trace {
	var tr isa.Trace
	tr.ByClass[isa.ClassFPAdd] = fpAdd
	tr.ByClass[isa.ClassFPMul] = fpMul
	tr.ByClass[isa.ClassFPDiv] = fpDiv
	tr.ByClass[isa.ClassFPSqrt] = fpSqrt
	tr.ByClass[isa.ClassLoad] = load
	tr.ByClass[isa.ClassStore] = store
	tr.ByClass[isa.ClassIntALU] = intALU
	tr.ByClass[isa.ClassBranch] = branch
	tr.Flops = fpAdd + fpMul + fpDiv + fpSqrt
	tr.Instrs = fpAdd + fpMul + fpDiv + fpSqrt + load + store + intALU + branch
	return tr
}

// ErrClass signals an unsupported class for a kernel.
func ErrClass(kernel string, c Class) error {
	return fmt.Errorf("nas: %s: unsupported class %q", kernel, c)
}

// Table3Kernels returns the package's kernels: exactly the paper's
// Table 3 rows, in its row order (BT, SP, LU, MG, EP, IS).
func Table3Kernels() []Kernel {
	return []Kernel{NewBTKernel(), NewSPKernel(), NewLUKernel(), NewMGKernel(), NewEP(), NewISKernel()}
}
