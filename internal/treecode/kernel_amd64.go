package treecode

// vecKernels selects the AVX2 lane kernels of kernel_amd64.s for the
// dual engine's monopole evaluation. It is fixed at start-up from
// CPUID; tests flip it to run the Go kernels as the reference.
var vecKernels = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM state across context switches (OSXSAVE set and
// XCR0 enabling both the SSE and AVX state components).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

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
