//go:build !amd64

package hostcpu

// HasAVX2 is false off amd64: the lane kernels are amd64 assembly.
func HasAVX2() bool { return false }
