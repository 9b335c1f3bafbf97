//go:build !amd64

package treecode

// vecKernels is false off amd64: the dual engine runs the Go kernels.
var vecKernels = false

func cellsMono4(b *laneBlock, eps2 float64, cx, cy, cz, cm []float64) {
	panic("treecode: lane kernels need amd64")
}

func partsExcept4(b *laneBlock, eps2 float64, px, py, pz, pm []float64, pidx []int32) {
	panic("treecode: lane kernels need amd64")
}
