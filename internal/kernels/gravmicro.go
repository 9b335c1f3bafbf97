// Package kernels generates the mini-ISA benchmark programs the paper's
// per-processor measurements run: the gravitational microkernel of §3.2 in
// both its library-sqrt and Karp-sqrt variants, plus per-op-class
// calibration loops used to fit the coarse CPU timing models.
package kernels

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/rsqrt"
	"repro/internal/sim"
)

// GravVariant selects the reciprocal-square-root implementation.
type GravVariant int

const (
	// GravMath uses the hardware square root and a divide.
	GravMath GravVariant = iota
	// GravKarp uses Karp's table + Chebyshev + Newton–Raphson sequence.
	GravKarp
)

func (v GravVariant) String() string {
	if v == GravMath {
		return "Math sqrt"
	}
	return "Karp sqrt"
}

// Memory layout (word addresses) shared by both variants.
const (
	addrXJ       = 0
	addrYJ       = 1
	addrZJ       = 2
	addrScratch  = 4
	addrAX       = 5
	addrAY       = 6
	addrAZ       = 7
	addrBodies   = 8
	wordsPerBody = 4 // x, y, z, m
)

// GravMicro describes one microkernel instance. The paper's run loops 500
// times over the reciprocal square-root calculation; NBodies is the number
// of field particles per sweep.
type GravMicro struct {
	Variant GravVariant
	NBodies int
	Iters   int
	// Karp configuration (ignored for GravMath).
	TableBits, ChebDeg, NRIters int
	// Seed for the deterministic particle distribution.
	Seed uint64
}

// DefaultGravMicro returns the paper-replica configuration for a variant.
func DefaultGravMicro(v GravVariant) GravMicro {
	return GravMicro{
		Variant:   v,
		NBodies:   32,
		Iters:     500,
		TableBits: 7,
		ChebDeg:   2,
		NRIters:   2,
		Seed:      2001,
	}
}

// Build assembles the program and an initialized architectural state
// (particle coordinates, and the Karp table for the Karp variant).
func (g GravMicro) Build() (isa.Program, *isa.State, error) {
	if g.NBodies <= 0 || g.Iters <= 0 {
		return nil, nil, fmt.Errorf("kernels: NBodies and Iters must be positive")
	}
	var table []float64
	tableBase := addrBodies + g.NBodies*wordsPerBody
	if g.Variant == GravKarp {
		var err error
		table, err = rsqrt.MonomialTable(g.TableBits, g.ChebDeg)
		if err != nil {
			return nil, nil, err
		}
	}
	src := g.source(tableBase)
	p, err := isa.Assemble(src)
	if err != nil {
		return nil, nil, fmt.Errorf("kernels: internal assembly error: %w\n%s", err, src)
	}
	st := isa.NewState(tableBase + len(table))
	xj, yj, zj, bodies := g.particles()
	st.StoreF(addrXJ, xj)
	st.StoreF(addrYJ, yj)
	st.StoreF(addrZJ, zj)
	for i, v := range bodies {
		st.StoreF(int64(addrBodies+i), v)
	}
	for i, c := range table {
		st.StoreF(int64(tableBase+i), c)
	}
	return p, st, nil
}

// particles returns the test particle position and the flattened
// (x, y, z, m) field-particle array, deterministically from the seed.
func (g GravMicro) particles() (xj, yj, zj float64, bodies []float64) {
	rng := sim.NewRNG(g.Seed)
	xj, yj, zj = 0.5, 0.5, 0.5
	bodies = make([]float64, g.NBodies*wordsPerBody)
	for i := 0; i < g.NBodies; i++ {
		// Keep particles away from the test particle so r² is well scaled.
		bodies[i*4+0] = 1.5 + rng.Float64()
		bodies[i*4+1] = 1.5 + rng.Float64()
		bodies[i*4+2] = 1.5 + rng.Float64()
		bodies[i*4+3] = 0.5 + 0.5*rng.Float64()
	}
	return
}

// source emits the assembly for the configured variant.
func (g GravMicro) source(tableBase int) string {
	var b strings.Builder
	w := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	w("; gravitational microkernel, %s variant", g.Variant)
	w("movi r0, 0")
	w("movi r10, %d", g.NBodies)
	w("movi r11, %d", g.Iters)
	w("movi r3, 0")
	w("fld f10, [r0+%d]", addrXJ)
	w("fld f11, [r0+%d]", addrYJ)
	w("fld f12, [r0+%d]", addrZJ)
	w("fmovi f13, 0.0")
	w("fmovi f14, 0.0")
	w("fmovi f15, 0.0")
	if g.Variant == GravMath {
		w("fmovi f9, 1.0")
	}
	w("outer:")
	w("movi r1, 0")
	w("movi r2, %d", addrBodies)
	w("inner:")
	w("fld f0, [r2+0]")
	w("fld f1, [r2+1]")
	w("fld f2, [r2+2]")
	w("fld f3, [r2+3]")
	w("fsub f0, f0, f10") // dx
	w("fsub f1, f1, f11")
	w("fsub f2, f2, f12")
	w("fmul f4, f0, f0")
	w("fmul f5, f1, f1")
	w("fmul f6, f2, f2")
	w("fadd f4, f4, f5")
	w("fadd f4, f4, f6") // r² in f4

	switch g.Variant {
	case GravMath:
		// r³ = r · r²; 1/r³ via divide.
		w("fsqrt f5, f4")
		w("fmul f6, f5, f4")
		w("fdiv f6, f9, f6") // f6 = 1/r³
	case GravKarp:
		g.emitKarpRsqrt(w, tableBase) // f5 ← 1/sqrt(f4)
		w("fmul f6, f5, f5")
		w("fmul f6, f6, f5") // f6 = 1/r³
	}

	w("fmul f7, f3, f6") // s = m/r³
	w("fmul f8, f7, f0")
	w("fadd f13, f13, f8")
	w("fmul f8, f7, f1")
	w("fadd f14, f14, f8")
	w("fmul f8, f7, f2")
	w("fadd f15, f15, f8")
	w("addi r2, r2, %d", wordsPerBody)
	w("addi r1, r1, 1")
	w("cmp r1, r10")
	w("jl inner")
	w("addi r3, r3, 1")
	w("cmp r3, r11")
	w("jl outer")
	w("fst [r0+%d], f13", addrAX)
	w("fst [r0+%d], f14", addrAY)
	w("fst [r0+%d], f15", addrAZ)
	w("hlt")
	return b.String()
}

// emitKarpRsqrt emits the Karp sequence computing f5 ← 1/sqrt(f4).
// Clobbers r4..r9 and f5..f8. Table lookup + Chebyshev-fitted monomial
// polynomial in the mantissa + Newton–Raphson, all without sqrt or divide.
func (g GravMicro) emitKarpRsqrt(w func(string, ...any), tableBase int) {
	deg := g.ChebDeg
	stride := deg + 1
	w("; --- Karp rsqrt: f5 = 1/sqrt(f4) ---")
	w("fst [r0+%d], f4", addrScratch)
	w("ld r4, [r0+%d]", addrScratch) // bits
	w("shr r5, r4, 52")              // biased exponent (positive input)
	w("addi r6, r5, 1")
	w("movi r7, 1")
	w("and r6, r6, r7") // p = (bexp+1)&1 — parity of the unbiased exponent
	// m ∈ [1,2): replace exponent field with the bias.
	w("movi r8, %d", int64(1)<<52-1)
	w("and r8, r4, r8")
	w("movi r9, %d", int64(1023)<<52)
	w("or r8, r8, r9")
	w("st [r0+%d], r8", addrScratch)
	w("fld f5, [r0+%d]", addrScratch) // m
	// Table index: (p << tableBits) | top mantissa bits.
	w("shr r9, r4, %d", 52-g.TableBits)
	w("movi r4, %d", int64(1)<<g.TableBits-1)
	w("and r9, r9, r4")
	w("shl r4, r6, %d", g.TableBits)
	w("or r9, r9, r4")
	// coefBase = tableBase + idx*stride.
	switch stride {
	case 1:
	case 2:
		w("shl r9, r9, 1")
	case 3:
		w("shl r4, r9, 1")
		w("add r9, r9, r4")
	case 4:
		w("shl r9, r9, 2")
	case 5:
		w("shl r4, r9, 2")
		w("add r9, r9, r4")
	}
	w("addi r9, r9, %d", tableBase)
	// Horner: y0 = ((c_deg·m + c_{deg-1})·m + ...)·m + c0.
	w("fld f6, [r9+%d]", deg)
	for k := deg - 1; k >= 0; k-- {
		w("fld f7, [r9+%d]", k)
		w("fmul f6, f6, f5")
		w("fadd f6, f6, f7")
	}
	// Scale 2^-s from biased-exponent arithmetic: ((3069+p-bexp)>>1)<<52.
	w("movi r4, 3069")
	w("add r4, r4, r6")
	w("sub r4, r4, r5")
	w("shr r4, r4, 1")
	w("shl r4, r4, 52")
	w("st [r0+%d], r4", addrScratch)
	w("fld f7, [r0+%d]", addrScratch)
	w("fmul f5, f6, f7") // y = poly(m) · 2^-s
	if g.NRIters > 0 {
		w("fmovi f7, 0.5")
		w("fmul f6, f7, f4") // xh = x/2
		w("fmovi f7, 1.5")
		for i := 0; i < g.NRIters; i++ {
			w("fmul f8, f5, f5")
			w("fmul f8, f6, f8")
			w("fsub f8, f7, f8")
			w("fmul f5, f5, f8")
		}
	}
	w("; --- end Karp rsqrt ---")
}

// Interactions returns the number of particle interactions the kernel
// computes.
func (g GravMicro) Interactions() uint64 {
	return uint64(g.NBodies) * uint64(g.Iters)
}
