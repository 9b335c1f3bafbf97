package treecode

import "repro/internal/hostcpu"

// vecKernels selects the AVX2 lane kernels of kernel_amd64.s for the
// dual engine's monopole evaluation. It is fixed at start-up from
// CPUID; tests flip it to run the Go kernels as the reference.
var vecKernels = hostcpu.HasAVX2()

// cellsMono4 adds the monopoles of cells [0, len(cm)) to the four
// lanes' accumulators: evalCellsMono run for four targets at once, one
// target per 64-bit lane, with the same operations in the same order.
//
//go:noescape
func cellsMono4(b *laneBlock, eps2 float64, cx, cy, cz, cm []float64)

// partsExcept4 adds the leaf sources [0, len(pm)) to the four lanes'
// accumulators with per-lane self-exclusion: evalPartsExcept run for
// four targets at once. A lane's own entry contributes +0.0 and is
// counted in its skipped slot.
//
//go:noescape
func partsExcept4(b *laneBlock, eps2 float64, px, py, pz, pm []float64, pidx []int32)
