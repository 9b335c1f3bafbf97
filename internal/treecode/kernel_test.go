package treecode

import (
	"math"
	"testing"

	"repro/internal/hostcpu"
	"repro/internal/nbody"
)

// requireLanes skips a test on hosts without the lane kernels.
func requireLanes(t *testing.T) {
	t.Helper()
	if !hostcpu.HasAVX2() {
		t.Skip("no AVX2 lane kernels on this host")
	}
}

// withDispatch runs fn with the lane kernels switched on or off.
func withDispatch(lanes bool, fn func()) {
	saved := vecKernels
	vecKernels = lanes
	defer func() { vecKernels = saved }()
	fn()
}

// sameFloat reports whether a lane kernel result matches the Go
// kernel's: the same bits when finite, the same class (±Inf or NaN)
// otherwise.
func sameFloat(a, b float64) bool {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.IsNaN(a) && math.IsNaN(b)
	case math.IsInf(a, 0) || math.IsInf(b, 0):
		return a == b
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelArena fills an arena with n cells and n leaf sources drawn
// around the targets. Every seventh source sits exactly on a target
// position under a different index, so eps = 0 meets coincident
// distinct particles.
func kernelArena(n int, seed uint64, targets [][3]float64) *WalkArena {
	ar := NewWalkArena()
	x := seed | 1
	rnd := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11)/(1<<53)*2 - 1
	}
	for i := 0; i < n; i++ {
		ar.cx = append(ar.cx, 4*rnd())
		ar.cy = append(ar.cy, 4*rnd())
		ar.cz = append(ar.cz, 4*rnd())
		ar.cm = append(ar.cm, 0.5+rnd()/4)
		px, py, pz := rnd(), rnd(), rnd()
		if i%7 == 3 {
			p := targets[i%len(targets)]
			px, py, pz = p[0], p[1], p[2]
		}
		ar.px = append(ar.px, px)
		ar.py = append(ar.py, py)
		ar.pz = append(ar.pz, pz)
		ar.pm = append(ar.pm, 0.5+rnd()/4)
		ar.pidx = append(ar.pidx, int32(100+i))
	}
	return ar
}

// TestKernelLanesMatchGo compares the lane kernels with the Go kernels
// entry by entry: list lengths 0–9, 63, 64 and 700; one to four live
// lanes with the idle lanes repeating a real target; each target's
// own index present in or absent from the source list; eps 0 (with
// coincident distinct particles, giving non-finite terms) and eps > 0.
func TestKernelLanesMatchGo(t *testing.T) {
	requireLanes(t)
	targets := [][3]float64{{0.1, -0.2, 0.3}, {-0.5, 0.25, 0}, {0.7, 0.7, -0.7}, {0, 0, 0}}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 700} {
		for _, eps := range []float64{0, 0.05} {
			for live := 1; live <= 4; live++ {
				for _, withSelf := range []bool{false, true} {
					ar := kernelArena(n, uint64(n*131+live), targets)
					self := make([]int32, 4)
					for k := range self {
						self[k] = int32(10 + k)
						if withSelf && n > 0 {
							// The target's own index sits in the list at
							// its own position, as in a dual-walk group.
							j := (k * 5) % n
							self[k] = ar.pidx[j]
							ar.px[j], ar.py[j], ar.pz[j] = targets[k][0], targets[k][1], targets[k][2]
						}
					}
					checkLanes(t, ar, targets, self, live, eps*eps)
				}
			}
		}
	}
}

func checkLanes(t *testing.T, ar *WalkArena, targets [][3]float64, self []int32, live int, eps2 float64) {
	t.Helper()
	var lb laneBlock
	for k := 0; k < 4; k++ {
		src := k
		if k >= live {
			src = 0
		}
		p := targets[src]
		lb.set(k, p[0], p[1], p[2], self[src])
	}
	var st Stats
	ar.evalLanes(&lb, live, eps2, &st)
	cells, parts := len(ar.cm), len(ar.pm)
	var want Stats
	for k := 0; k < live; k++ {
		p := targets[k]
		ax, ay, az := ar.evalCellsMono(p[0], p[1], p[2], eps2, 0, cells, 0, 0, 0)
		ax, ay, az, skipped := ar.evalPartsExcept(p[0], p[1], p[2], eps2, self[k], 0, parts, ax, ay, az)
		want.PC += uint64(cells)
		want.PP += uint64(parts - skipped)
		idx, gx, gy, gz := ar.Target(k)
		if idx != int(self[k]) || !sameFloat(gx, ax) || !sameFloat(gy, ay) || !sameFloat(gz, az) {
			t.Fatalf("n=%d live=%d eps2=%g lane %d: lanes (%d, %v %v %v), Go (%d, %v %v %v)",
				parts, live, eps2, k, idx, gx, gy, gz, self[k], ax, ay, az)
		}
	}
	if ar.NumTargets() != live {
		t.Fatalf("n=%d: %d rows for %d live lanes", parts, ar.NumTargets(), live)
	}
	if st != want {
		t.Fatalf("n=%d live=%d: stats %+v, want %+v", parts, live, st, want)
	}
}

// TestKernelDispatchWholeSystem runs whole integrations under both
// dispatches — three Leapfrog steps on a Plummer sphere, and block
// steps on a cold disk, whose masked calls select ragged target sets —
// at 1, 2 and 8 workers. State and Stats must be identical.
func TestKernelDispatchWholeSystem(t *testing.T) {
	requireLanes(t)
	type result struct {
		s  *nbody.System
		st Stats
		rs nbody.RungStats
	}
	leapfrog := func(w int) result {
		s := nbody.NewPlummer(20000, 1, 41)
		f := &Forcer{Workers: w}
		if err := s.Leapfrog(f, 0.005, 3); err != nil {
			t.Fatal(err)
		}
		return result{s: s, st: f.Total}
	}
	blockstep := func(w int) result {
		s := nbody.NewColdDisk(8192, 42)
		f := &Forcer{Workers: w}
		var b nbody.BlockStepper
		if err := b.Run(s, f, nbody.BlockConfig{DT: 0.04, MaxRung: 6}, 1); err != nil {
			t.Fatal(err)
		}
		return result{s: s, st: f.Total, rs: b.Stats}
	}
	for _, tc := range []struct {
		name string
		run  func(w int) result
	}{{"leapfrog", leapfrog}, {"blockstep", blockstep}} {
		for _, w := range []int{1, 2, 8} {
			var ref, got result
			withDispatch(false, func() { ref = tc.run(w) })
			withDispatch(true, func() { got = tc.run(w) })
			if got.st != ref.st || got.rs != ref.rs {
				t.Fatalf("%s workers=%d: lanes stats %+v %+v, Go %+v %+v", tc.name, w, got.st, got.rs, ref.st, ref.rs)
			}
			for i := 0; i < ref.s.N(); i++ {
				for _, p := range [][2][]float64{
					{ref.s.X, got.s.X}, {ref.s.Y, got.s.Y}, {ref.s.Z, got.s.Z},
					{ref.s.VX, got.s.VX}, {ref.s.VY, got.s.VY}, {ref.s.VZ, got.s.VZ},
					{ref.s.AX, got.s.AX}, {ref.s.AY, got.s.AY}, {ref.s.AZ, got.s.AZ},
				} {
					if math.Float64bits(p[0][i]) != math.Float64bits(p[1][i]) {
						t.Fatalf("%s workers=%d: particle %d differs between dispatches", tc.name, w, i)
					}
				}
			}
		}
	}
}

// TestKernelDispatchChoosesLanes: a CPU that reports AVX2 must get
// the lane kernels (hostcpu's own test cross-checks the probe against
// the kernel's CPU flags).
func TestKernelDispatchChoosesLanes(t *testing.T) {
	if vecKernels != hostcpu.HasAVX2() {
		t.Fatalf("dispatch %v, CPUID AVX2 %v", vecKernels, hostcpu.HasAVX2())
	}
}
