#include "textflag.h"

// The dual engine's lane kernels: each 256-bit lane holds one target,
// and each loop iteration broadcasts one list entry to all four. Every
// lane runs exactly the scalar operation sequence of the Go kernel it
// replaces (walk.go) — same operand order, no FMA, the IEEE-exact
// VSQRTPD and VDIVPD — so each lane's result has the Go kernel's bits.
//
// laneBlock layout (dualwalk.go): x 0, y 32, z 64, ax 96, ay 128,
// az 160, self 192, skipped 224.
//
// Register use: Y0-Y2 target x/y/z, Y3 eps2, Y15 1.0, Y4/Y5/Y12 the
// ax/ay/az accumulators, Y6-Y10 and Y13 scratch; partsExcept4 also
// holds the self indices in Y14 and the skip counts in Y11.

// func cellsMono4(b *laneBlock, eps2 float64, cx, cy, cz, cm []float64)
TEXT ·cellsMono4(SB), NOSPLIT, $0-112
	MOVQ b+0(FP), AX
	MOVQ cx_base+16(FP), SI
	MOVQ cy_base+40(FP), DI
	MOVQ cz_base+64(FP), R8
	MOVQ cm_base+88(FP), R9
	MOVQ cm_len+96(FP), DX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VBROADCASTSD eps2+8(FP), Y3
	VMOVUPD 96(AX), Y4
	VMOVUPD 128(AX), Y5
	VMOVUPD 160(AX), Y12
	MOVQ $0x3FF0000000000000, R11
	VMOVQ R11, X15
	VPBROADCASTQ X15, Y15
	XORQ CX, CX
	TESTQ DX, DX
	JEQ cellsdone

cellsloop:
	VBROADCASTSD (SI)(CX*8), Y6
	VSUBPD Y0, Y6, Y6           // dx := cx[i] - x
	VBROADCASTSD (DI)(CX*8), Y7
	VSUBPD Y1, Y7, Y7           // dy := cy[i] - y
	VBROADCASTSD (R8)(CX*8), Y8
	VSUBPD Y2, Y8, Y8           // dz := cz[i] - z
	VMULPD Y6, Y6, Y9
	VMULPD Y7, Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y8, Y8, Y10
	VADDPD Y10, Y9, Y9          // d2 := dx*dx + dy*dy + dz*dz
	VADDPD Y3, Y9, Y9           // r2 := d2 + eps2
	VSQRTPD Y9, Y9
	VDIVPD Y9, Y15, Y9          // rinv := 1 / sqrt(r2)
	VMULPD Y9, Y9, Y10          // rinv2 := rinv * rinv
	VBROADCASTSD (R9)(CX*8), Y13
	VMULPD Y9, Y13, Y13
	VMULPD Y10, Y13, Y13        // mono := cm[i] * rinv * rinv2
	VMULPD Y13, Y6, Y6
	VADDPD Y6, Y4, Y4           // ax += mono * dx
	VMULPD Y13, Y7, Y7
	VADDPD Y7, Y5, Y5           // ay += mono * dy
	VMULPD Y13, Y8, Y8
	VADDPD Y8, Y12, Y12         // az += mono * dz
	INCQ CX
	CMPQ CX, DX
	JLT cellsloop

cellsdone:
	VMOVUPD Y4, 96(AX)
	VMOVUPD Y5, 128(AX)
	VMOVUPD Y12, 160(AX)
	VZEROUPPER
	RET

// func partsExcept4(b *laneBlock, eps2 float64, px, py, pz, pm []float64, pidx []int32)
TEXT ·partsExcept4(SB), NOSPLIT, $0-136
	MOVQ b+0(FP), AX
	MOVQ px_base+16(FP), SI
	MOVQ py_base+40(FP), DI
	MOVQ pz_base+64(FP), R8
	MOVQ pm_base+88(FP), R9
	MOVQ pm_len+96(FP), DX
	MOVQ pidx_base+112(FP), R10
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VBROADCASTSD eps2+8(FP), Y3
	VMOVUPD 96(AX), Y4
	VMOVUPD 128(AX), Y5
	VMOVUPD 160(AX), Y12
	VMOVDQU 192(AX), Y14
	VMOVDQU 224(AX), Y11
	MOVQ $0x3FF0000000000000, R11
	VMOVQ R11, X15
	VPBROADCASTQ X15, Y15
	XORQ CX, CX
	TESTQ DX, DX
	JEQ partsdone

partsloop:
	VBROADCASTSD (SI)(CX*8), Y6
	VSUBPD Y0, Y6, Y6           // px := sx[i] - x
	VBROADCASTSD (DI)(CX*8), Y7
	VSUBPD Y1, Y7, Y7           // py := sy[i] - y
	VBROADCASTSD (R8)(CX*8), Y8
	VSUBPD Y2, Y8, Y8           // pz := sz[i] - z
	VMULPD Y6, Y6, Y9
	VMULPD Y7, Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y8, Y8, Y10
	VADDPD Y10, Y9, Y9
	VADDPD Y3, Y9, Y9           // r2 := px*px + py*py + pz*pz + eps2
	VSQRTPD Y9, Y9
	VDIVPD Y9, Y15, Y9          // rinv := 1 / sqrt(r2)
	VBROADCASTSD (R9)(CX*8), Y10
	VMULPD Y9, Y10, Y10
	VMULPD Y9, Y10, Y10
	VMULPD Y9, Y10, Y10         // f := sm[i] * rinv * rinv * rinv
	// Self mask: pidx[i] in all eight dwords equals a lane's self
	// (its index in both dwords) exactly when idx[i] == selfIdx.
	VPBROADCASTD (R10)(CX*4), Y13
	VPCMPEQQ Y14, Y13, Y13
	VPSUBQ Y13, Y11, Y11        // skipped++ where masked
	VMULPD Y10, Y6, Y6
	VANDNPD Y6, Y13, Y6
	VADDPD Y6, Y4, Y4           // ax += f * px, or +0.0 where masked
	VMULPD Y10, Y7, Y7
	VANDNPD Y7, Y13, Y7
	VADDPD Y7, Y5, Y5           // ay += f * py
	VMULPD Y10, Y8, Y8
	VANDNPD Y8, Y13, Y8
	VADDPD Y8, Y12, Y12         // az += f * pz
	INCQ CX
	CMPQ CX, DX
	JLT partsloop

partsdone:
	VMOVUPD Y4, 96(AX)
	VMOVUPD Y5, 128(AX)
	VMOVUPD Y12, 160(AX)
	VMOVDQU Y11, 224(AX)
	VZEROUPPER
	RET
