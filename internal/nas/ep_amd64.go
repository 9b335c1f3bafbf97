package nas

import "repro/internal/hostcpu"

// epLanes selects the AVX2 lane kernels of ep_amd64.s for epRanges's
// first two passes. It is fixed at start-up from CPUID; tests flip it
// to run the Go loops as the reference.
var epLanes = hostcpu.HasAVX2()

// epGenMul holds one group's LCG multipliers for epGen4: lane k's x
// seed is s·a^(2k+1) and its y seed s·a^(2k+2) (mod 2^46), where s is
// the seed before the group. Rows: the x multipliers, their high 32
// bits, the y multipliers, their high 32 bits.
var epGenMul = func() (m [4][4]uint64) {
	for k := range 4 {
		x, y := powMod46(LCGMult, uint64(2*k+1)), powMod46(LCGMult, uint64(2*k+2))
		m[0][k], m[1][k], m[2][k], m[3][k] = x, x>>32, y, y>>32
	}
	return m
}()

// epGen4 runs epRanges's first pass for groups·4 pairs from *seed,
// four pairs per iteration: it stores each group's x, y and t at xs,
// ys and ts[n:n+4], accepted lanes first, advances n by the accepted
// count, and returns n. *seed ends as the LCG's seed after the last
// pair.
//
//go:noescape
func epGen4(seed *uint64, groups int, xs, ys, ts *[epBatch]float64) int

// epFactor4 replaces ts[0:4·groups] by sqrt(-2*math.Log(t)/t), four
// lanes at a time.
//
//go:noescape
func epFactor4(ts *[epBatch]float64, groups int)

// epLog4 replaces xs[0:4·groups] by math.Log(x) through epFactor4's
// lane log alone, so tests can check the log itself: whether the
// reduction tests f1 <= √2/2 (log_amd64.s) or f1 < √2/2 (log.go)
// changes the log of one power-of-two multiple of √2/2 and the polar
// factor of none.
//
//go:noescape
func epLog4(xs *[epBatch]float64, groups int)
