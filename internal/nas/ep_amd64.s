#include "textflag.h"

// EP's lane kernels: four pairs (epGen4) or four accepted t values
// (epFactor4, epLog4) per 256-bit register, one per 64-bit lane. Each lane runs
// the scalar operation sequence of epCompute's Go fallback, so every
// value it stores has the Go loop's bits: the LCG step is exact integer
// arithmetic, the seed-to-double conversion is exact, the log is
// $GOROOT/src/math/log_amd64.s line for line with no FMA, and VDIVPD
// and VSQRTPD are IEEE-exact.

// VEC4 fills the 32-byte row at off of epK with one 8-byte value.
#define VEC4(off, v) \
	DATA epK<>+(off)(SB)/8, v; \
	DATA epK<>+(off+8)(SB)/8, v; \
	DATA epK<>+(off+16)(SB)/8, v; \
	DATA epK<>+(off+24)(SB)/8, v

#define MANT 0
#define HALF 32
#define EXP11 64
#define TWO52 96
#define KBIAS 128
#define HSQRT2 160
#define ONE 192
#define TWO 224
#define L1 256
#define L2 288
#define L3 320
#define L4 352
#define L5 384
#define L6 416
#define L7 448
#define LN2HI 480
#define LN2LO 512
#define MAXFIN 544
#define NAN 576
#define NEGINF 608
#define ABS 640
#define MINUS2 672
#define MASK46 704
#define SCALE 736

VEC4(MANT, $0x000FFFFFFFFFFFFF)
VEC4(HALF, $0x3FE0000000000000)   // 0.5
VEC4(EXP11, $0x7FF)
VEC4(TWO52, $0x4330000000000000)  // 2^52
VEC4(KBIAS, $0x43300000000003FE)  // 2^52 + 0x3FE
VEC4(HSQRT2, $0x3FE6A09E667F3BCD) // sqrt(2)/2
VEC4(ONE, $0x3FF0000000000000)
VEC4(TWO, $0x4000000000000000)
VEC4(L1, $0x3FE5555555555593)
VEC4(L2, $0x3FD999999997FA04)
VEC4(L3, $0x3FD2492494229359)
VEC4(L4, $0x3FCC71C51D8E78AF)
VEC4(L5, $0x3FC7466496CB03DE)
VEC4(L6, $0x3FC39A09D078C69F)
VEC4(L7, $0x3FC2F112DF3E5244)
VEC4(LN2HI, $0x3FE62E42FEE00000)
VEC4(LN2LO, $0x3DEA39EF35793C76)
VEC4(MAXFIN, $0x7FEFFFFFFFFFFFFF)
VEC4(NAN, $0x7FF8000000000001)    // math.Log's NaN for x < 0
VEC4(NEGINF, $0xFFF0000000000000)
VEC4(ABS, $0x7FFFFFFFFFFFFFFF)
VEC4(MINUS2, $0xC000000000000000) // -2
VEC4(MASK46, $0x00003FFFFFFFFFFF)
VEC4(SCALE, $0x3D20000000000000)  // 2^-45
GLOBL epK<>(SB), RODATA|NOPTR, $768

// epPack row m (32 bytes, the VMOVMSKPD mask of accepted lanes) is the
// VPERMD index vector that moves the accepted lanes, in lane order, to
// the front.
DATA epPack<>+0(SB)/8, $0x0000000100000000
DATA epPack<>+8(SB)/8, $0x0000000300000002
DATA epPack<>+16(SB)/8, $0x0000000500000004
DATA epPack<>+24(SB)/8, $0x0000000700000006
DATA epPack<>+32(SB)/8, $0x0000000100000000
DATA epPack<>+40(SB)/8, $0x0000000300000002
DATA epPack<>+48(SB)/8, $0x0000000500000004
DATA epPack<>+56(SB)/8, $0x0000000700000006
DATA epPack<>+64(SB)/8, $0x0000000300000002
DATA epPack<>+72(SB)/8, $0x0000000100000000
DATA epPack<>+80(SB)/8, $0x0000000500000004
DATA epPack<>+88(SB)/8, $0x0000000700000006
DATA epPack<>+96(SB)/8, $0x0000000100000000
DATA epPack<>+104(SB)/8, $0x0000000300000002
DATA epPack<>+112(SB)/8, $0x0000000500000004
DATA epPack<>+120(SB)/8, $0x0000000700000006
DATA epPack<>+128(SB)/8, $0x0000000500000004
DATA epPack<>+136(SB)/8, $0x0000000100000000
DATA epPack<>+144(SB)/8, $0x0000000300000002
DATA epPack<>+152(SB)/8, $0x0000000700000006
DATA epPack<>+160(SB)/8, $0x0000000100000000
DATA epPack<>+168(SB)/8, $0x0000000500000004
DATA epPack<>+176(SB)/8, $0x0000000300000002
DATA epPack<>+184(SB)/8, $0x0000000700000006
DATA epPack<>+192(SB)/8, $0x0000000300000002
DATA epPack<>+200(SB)/8, $0x0000000500000004
DATA epPack<>+208(SB)/8, $0x0000000100000000
DATA epPack<>+216(SB)/8, $0x0000000700000006
DATA epPack<>+224(SB)/8, $0x0000000100000000
DATA epPack<>+232(SB)/8, $0x0000000300000002
DATA epPack<>+240(SB)/8, $0x0000000500000004
DATA epPack<>+248(SB)/8, $0x0000000700000006
DATA epPack<>+256(SB)/8, $0x0000000700000006
DATA epPack<>+264(SB)/8, $0x0000000100000000
DATA epPack<>+272(SB)/8, $0x0000000300000002
DATA epPack<>+280(SB)/8, $0x0000000500000004
DATA epPack<>+288(SB)/8, $0x0000000100000000
DATA epPack<>+296(SB)/8, $0x0000000700000006
DATA epPack<>+304(SB)/8, $0x0000000300000002
DATA epPack<>+312(SB)/8, $0x0000000500000004
DATA epPack<>+320(SB)/8, $0x0000000300000002
DATA epPack<>+328(SB)/8, $0x0000000700000006
DATA epPack<>+336(SB)/8, $0x0000000100000000
DATA epPack<>+344(SB)/8, $0x0000000500000004
DATA epPack<>+352(SB)/8, $0x0000000100000000
DATA epPack<>+360(SB)/8, $0x0000000300000002
DATA epPack<>+368(SB)/8, $0x0000000700000006
DATA epPack<>+376(SB)/8, $0x0000000500000004
DATA epPack<>+384(SB)/8, $0x0000000500000004
DATA epPack<>+392(SB)/8, $0x0000000700000006
DATA epPack<>+400(SB)/8, $0x0000000100000000
DATA epPack<>+408(SB)/8, $0x0000000300000002
DATA epPack<>+416(SB)/8, $0x0000000100000000
DATA epPack<>+424(SB)/8, $0x0000000500000004
DATA epPack<>+432(SB)/8, $0x0000000700000006
DATA epPack<>+440(SB)/8, $0x0000000300000002
DATA epPack<>+448(SB)/8, $0x0000000300000002
DATA epPack<>+456(SB)/8, $0x0000000500000004
DATA epPack<>+464(SB)/8, $0x0000000700000006
DATA epPack<>+472(SB)/8, $0x0000000100000000
DATA epPack<>+480(SB)/8, $0x0000000100000000
DATA epPack<>+488(SB)/8, $0x0000000300000002
DATA epPack<>+496(SB)/8, $0x0000000500000004
DATA epPack<>+504(SB)/8, $0x0000000700000006
GLOBL epPack<>(SB), RODATA|NOPTR, $512

// func epGen4(seed *uint64, groups int, xs, ys, ts *[epBatch]float64) int
//
// Y10 holds the current seed s in every lane. A group's x seeds are
// s·a^(2k+1) and its y seeds s·a^(2k+2) mod 2^46 in lane k (the
// multipliers of epGenMul), and lane 3's y seed starts the next group.
// A 46-bit product mod 2^46 is lo·lo + (hi·lo + lo·hi)<<32, masked: the
// hi·hi term lies above bit 63.
//
// Register use: Y15 the 46-bit mask, Y14/Y13 the x multipliers' low
// and high halves, Y12/Y11 the y multipliers', Y10 the seed, Y9 the
// bits of 2^52, Y8 2^-45, Y7 1.0, Y0-Y6 scratch; BX the accepted count.
// POPCNT needs no probe of its own: every AVX2 CPU has it.
TEXT ·epGen4(SB), NOSPLIT, $0-48
	MOVQ seed+0(FP), DI
	MOVQ groups+8(FP), CX
	MOVQ xs+16(FP), SI
	MOVQ ys+24(FP), DX
	MOVQ ts+32(FP), R8
	LEAQ epPack<>(SB), R10
	LEAQ ·epGenMul(SB), R11
	VPBROADCASTQ 0(DI), Y10
	VMOVDQU 0(R11), Y14
	VMOVDQU 32(R11), Y13
	VMOVDQU 64(R11), Y12
	VMOVDQU 96(R11), Y11
	VMOVDQU epK<>+MASK46(SB), Y15
	VMOVDQU epK<>+TWO52(SB), Y9
	VMOVUPD epK<>+SCALE(SB), Y8
	VMOVUPD epK<>+ONE(SB), Y7
	XORQ BX, BX
	TESTQ CX, CX
	JEQ gendone

genloop:
	VPSRLQ $32, Y10, Y6         // the seed's high bits
	VPMULUDQ Y14, Y10, Y0
	VPMULUDQ Y14, Y6, Y1
	VPMULUDQ Y13, Y10, Y2
	VPADDQ Y2, Y1, Y1
	VPSLLQ $32, Y1, Y1
	VPADDQ Y1, Y0, Y0
	VPAND Y15, Y0, Y0           // x seeds
	VPMULUDQ Y12, Y10, Y3
	VPMULUDQ Y12, Y6, Y1
	VPMULUDQ Y11, Y10, Y2
	VPADDQ Y2, Y1, Y1
	VPSLLQ $32, Y1, Y1
	VPADDQ Y1, Y3, Y3
	VPAND Y15, Y3, Y3           // y seeds
	VPERMQ $0xFF, Y3, Y10       // s for the next group
	VPOR Y9, Y0, Y0
	VSUBPD Y9, Y0, Y0           // float64(seed), exactly
	VMULPD Y8, Y0, Y0           // 2*(float64(seed)*2^-46), exactly
	VSUBPD Y7, Y0, Y0           // x := 2*u - 1
	VPOR Y9, Y3, Y3
	VSUBPD Y9, Y3, Y3
	VMULPD Y8, Y3, Y3
	VSUBPD Y7, Y3, Y3           // y := 2*u - 1
	VMULPD Y0, Y0, Y4
	VMULPD Y3, Y3, Y5
	VADDPD Y5, Y4, Y4           // t := x*x + y*y
	VCMPPD $2, Y7, Y4, Y5       // t <= 1
	VMOVMSKPD Y5, AX
	MOVQ AX, R9
	SHLQ $5, R9
	VMOVDQU (R10)(R9*1), Y6
	VPERMD Y0, Y6, Y0
	VPERMD Y3, Y6, Y3
	VPERMD Y4, Y6, Y4
	VMOVUPD Y0, (SI)(BX*8)
	VMOVUPD Y3, (DX)(BX*8)
	VMOVUPD Y4, (R8)(BX*8)
	POPCNTL AX, AX
	ADDQ AX, BX
	DECQ CX
	JNE genloop

gendone:
	VMOVQ X10, 0(DI)
	MOVQ BX, ret+40(FP)
	VZEROUPPER
	RET

// LANELOG sets Y1 to math.Log of the four lanes of Y0, following
// log_amd64.s: frexp from the bits (so a denormal takes the plain bit
// path, as there), the reduction when f1 <= √2/2 (CMPSD's not-less-than
// predicate 5: the asm's test, where log.go has f1 < √2/2), then the
// polynomial in the same association. Zero, negative and Inf/NaN lanes
// are blended in last, in the asm's order of tests. It needs Y8 = 0 and
// uses Y2 (f1, then f), Y3 (s), Y4-Y6 (the polynomial terms) and Y7 (a
// special-case mask).
#define LANELOG \
	/* f1, ki := math.Frexp(x); k := float64(ki) */ \
	VANDPD epK<>+MANT(SB), Y0, Y2; \
	VORPD epK<>+HALF(SB), Y2, Y2; \
	VPSRLQ $52, Y0, Y1; \
	VPAND epK<>+EXP11(SB), Y1, Y1; \
	VPOR epK<>+TWO52(SB), Y1, Y1; \
	VSUBPD epK<>+KBIAS(SB), Y1, Y1; \
	/* if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 } */ \
	VMOVUPD epK<>+HSQRT2(SB), Y3; \
	VCMPPD $5, Y2, Y3, Y3; \
	VANDPD epK<>+ONE(SB), Y3, Y3; \
	VSUBPD Y3, Y1, Y1; \
	VADDPD epK<>+ONE(SB), Y3, Y3; \
	VMULPD Y3, Y2, Y2; \
	/* f := f1 - 1 */ \
	VSUBPD epK<>+ONE(SB), Y2, Y2; \
	/* s := f / (2 + f) */ \
	VADDPD epK<>+TWO(SB), Y2, Y3; \
	VDIVPD Y3, Y2, Y3; \
	/* s2 := s * s; s4 := s2 * s2 */ \
	VMULPD Y3, Y3, Y4; \
	VMULPD Y4, Y4, Y5; \
	/* t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7))) */ \
	VMULPD epK<>+L7(SB), Y5, Y6; \
	VADDPD epK<>+L5(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD epK<>+L3(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD epK<>+L1(SB), Y6, Y6; \
	VMULPD Y6, Y4, Y4; \
	/* t2 := s4 * (L2 + s4*(L4+s4*L6)) */ \
	VMULPD epK<>+L6(SB), Y5, Y6; \
	VADDPD epK<>+L4(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD epK<>+L2(SB), Y6, Y6; \
	VMULPD Y6, Y5, Y5; \
	/* R := t1 + t2 */ \
	VADDPD Y5, Y4, Y4; \
	/* hfsq := 0.5 * f * f */ \
	VMULPD epK<>+HALF(SB), Y2, Y6; \
	VMULPD Y2, Y6, Y6; \
	/* return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f) */ \
	VADDPD Y6, Y4, Y4; \
	VMULPD Y4, Y3, Y3; \
	VMULPD epK<>+LN2LO(SB), Y1, Y4; \
	VADDPD Y4, Y3, Y3; \
	VSUBPD Y3, Y6, Y6; \
	VSUBPD Y2, Y6, Y6; \
	VMULPD epK<>+LN2HI(SB), Y1, Y1; \
	VSUBPD Y6, Y1, Y1; \
	/* +Inf or NaN (bits at or above +Inf's): return x */ \
	VPCMPGTQ epK<>+MAXFIN(SB), Y0, Y7; \
	VBLENDVPD Y7, Y0, Y1, Y1; \
	/* x < 0: return NaN */ \
	VPCMPGTQ Y0, Y8, Y7; \
	VBLENDVPD Y7, epK<>+NAN(SB), Y1, Y1; \
	/* ±0: return -Inf */ \
	VANDPD epK<>+ABS(SB), Y0, Y7; \
	VPCMPEQQ Y8, Y7, Y7; \
	VBLENDVPD Y7, epK<>+NEGINF(SB), Y1, Y1

// func epFactor4(ts *[epBatch]float64, groups int)
TEXT ·epFactor4(SB), NOSPLIT, $0-16
	MOVQ ts+0(FP), SI
	MOVQ groups+8(FP), CX
	VPXOR Y8, Y8, Y8
	TESTQ CX, CX
	JEQ factordone

factorloop:
	VMOVUPD 0(SI), Y0
	LANELOG
	// sqrt(-2 * log(t) / t)
	VMULPD epK<>+MINUS2(SB), Y1, Y1
	VDIVPD Y0, Y1, Y1
	VSQRTPD Y1, Y1
	VMOVUPD Y1, 0(SI)
	ADDQ $32, SI
	DECQ CX
	JNE factorloop

factordone:
	VZEROUPPER
	RET

// func epLog4(xs *[epBatch]float64, groups int)
TEXT ·epLog4(SB), NOSPLIT, $0-16
	MOVQ xs+0(FP), SI
	MOVQ groups+8(FP), CX
	VPXOR Y8, Y8, Y8
	TESTQ CX, CX
	JEQ logdone

logloop:
	VMOVUPD 0(SI), Y0
	LANELOG
	VMOVUPD Y1, 0(SI)
	ADDQ $32, SI
	DECQ CX
	JNE logloop

logdone:
	VZEROUPPER
	RET
