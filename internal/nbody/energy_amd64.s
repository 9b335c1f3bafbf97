#include "textflag.h"

// EnergyWith's row kernel: four consecutive sources per 256-bit
// register, one per 64-bit lane. Each lane forms its pair term with the
// Go loop's operations in the Go loop's order — no FMA, and the
// IEEE-exact VSQRTPD and VDIVPD — and the four terms are then
// subtracted from the row's scalar accumulator one at a time, lane 0
// first, so the fold is the Go loop's sequential fold bit for bit.
//
// Register use: Y0-Y2 the target's x/y/z, Y3 gmi, Y4 eps2, X5 pot,
// Y6-Y10 scratch.

// func potRow4(xi, yi, zi, gmi, eps2, pot float64, x, y, z, m []float64) float64
TEXT ·potRow4(SB), NOSPLIT, $0-152
	VBROADCASTSD xi+0(FP), Y0
	VBROADCASTSD yi+8(FP), Y1
	VBROADCASTSD zi+16(FP), Y2
	VBROADCASTSD gmi+24(FP), Y3
	VBROADCASTSD eps2+32(FP), Y4
	VMOVSD pot+40(FP), X5
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), DI
	MOVQ z_base+96(FP), R8
	MOVQ m_base+120(FP), R9
	MOVQ m_len+128(FP), DX
	SHRQ $2, DX
	JEQ potdone

potloop:
	VMOVUPD (SI), Y6
	VSUBPD Y0, Y6, Y6           // dx := x[j] - xi
	VMOVUPD (DI), Y7
	VSUBPD Y1, Y7, Y7           // dy := y[j] - yi
	VMOVUPD (R8), Y8
	VSUBPD Y2, Y8, Y8           // dz := z[j] - zi
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y8, Y8, Y8
	VADDPD Y8, Y6, Y6
	VADDPD Y4, Y6, Y6           // dx*dx + dy*dy + dz*dz + eps2
	VSQRTPD Y6, Y6              // r
	VMOVUPD (R9), Y9
	VMULPD Y9, Y3, Y9           // gmi * m[j]
	VDIVPD Y6, Y9, Y9           // term := gmi * m[j] / r
	VSUBSD X9, X5, X5           // pot -= term, lane 0
	VPERMILPD $1, X9, X10
	VSUBSD X10, X5, X5          // lane 1
	VEXTRACTF128 $1, Y9, X9
	VSUBSD X9, X5, X5           // lane 2
	VPERMILPD $1, X9, X10
	VSUBSD X10, X5, X5          // lane 3
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ DX
	JNE potloop

potdone:
	VMOVSD X5, ret+144(FP)
	VZEROUPPER
	RET
