//go:build !amd64

package nas

// epLanes is false off amd64: epRanges runs the Go loops.
var epLanes = false

func epGen4(seed *uint64, groups int, xs, ys, ts *[epBatch]float64) int {
	panic("nas: EP lane kernels need amd64")
}

func epFactor4(ts *[epBatch]float64, groups int) {
	panic("nas: EP lane kernels need amd64")
}

func epLog4(xs *[epBatch]float64, groups int) {
	panic("nas: EP lane kernels need amd64")
}
