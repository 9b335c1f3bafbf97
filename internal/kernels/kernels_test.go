package kernels

import (
	"math"
	"testing"

	"repro/internal/cms"
	"repro/internal/isa"
	"repro/internal/rsqrt"
	"repro/internal/vliw"
)

func TestGravMicroMathMatchesReferenceBitExact(t *testing.T) {
	g := GravMicro{Variant: GravMath, NBodies: 8, Iters: 3, Seed: 7}
	p, st, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := isa.Run(p, st, nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	ax, ay, az := readAccel(st)
	wx, wy, wz, err := g.reference()
	if err != nil {
		t.Fatal(err)
	}
	if ax != wx || ay != wy || az != wz {
		t.Fatalf("accel (%v,%v,%v) != reference (%v,%v,%v)", ax, ay, az, wx, wy, wz)
	}
	if ax == 0 && ay == 0 && az == 0 {
		t.Fatal("zero acceleration — kernel did nothing")
	}
}

func TestGravMicroKarpMatchesReferenceBitExact(t *testing.T) {
	g := GravMicro{Variant: GravKarp, NBodies: 8, Iters: 3, TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 7}
	p, st, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := isa.Run(p, st, nil, 50_000_000); err != nil {
		t.Fatal(err)
	}
	ax, ay, az := readAccel(st)
	wx, wy, wz, err := g.reference()
	if err != nil {
		t.Fatal(err)
	}
	if ax != wx || ay != wy || az != wz {
		t.Fatalf("accel (%v,%v,%v) != reference (%v,%v,%v)", ax, ay, az, wx, wy, wz)
	}
}

func TestGravMicroVariantsAgreeNumerically(t *testing.T) {
	// Karp with 2 NR steps is full precision: both variants must agree to
	// ~1e-12 relative.
	gm := GravMicro{Variant: GravMath, NBodies: 16, Iters: 2, Seed: 99}
	gk := gm
	gk.Variant = GravKarp
	gk.TableBits, gk.ChebDeg, gk.NRIters = 7, 2, 2

	mx, my, mz, err := gm.reference()
	if err != nil {
		t.Fatal(err)
	}
	kx, ky, kz, err := gk.reference()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]float64{{mx, kx}, {my, ky}, {mz, kz}} {
		rel := math.Abs(pair[0]-pair[1]) / math.Abs(pair[0])
		if rel > 1e-12 {
			t.Fatalf("variants disagree: %v vs %v (rel %g)", pair[0], pair[1], rel)
		}
	}
}

func TestGravMicroRunsUnderCMS(t *testing.T) {
	// The microkernel must run correctly on the full Crusoe simulation —
	// the configuration Table 1's TM5600 column uses.
	for _, variant := range []GravVariant{GravMath, GravKarp} {
		g := GravMicro{Variant: variant, NBodies: 4, Iters: 30, TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 3}
		p, st, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := cms.NewMachine(cms.DefaultParams(), vliw.TM5600Timing())
		cycles, tr, err := m.Run(p, st, 0)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		ax, ay, az := readAccel(st)
		wx, wy, wz, err := g.reference()
		if err != nil {
			t.Fatal(err)
		}
		if ax != wx || ay != wy || az != wz {
			t.Fatalf("%v under CMS: accel (%v,%v,%v) != reference (%v,%v,%v)", variant, ax, ay, az, wx, wy, wz)
		}
		if cycles == 0 || tr.Flops == 0 {
			t.Fatalf("%v: no cycles or flops recorded", variant)
		}
	}
}

func TestGravMicroFlopCounts(t *testing.T) {
	// Math variant: 18 flops per interaction (3 sub, 3 mul, 2 add, sqrt,
	// mul, div, mul, 3 mul, 3 add).
	g := GravMicro{Variant: GravMath, NBodies: 4, Iters: 5, Seed: 1}
	p, st, _ := g.Build()
	var tr isa.Trace
	if err := isa.Run(p, st, &tr, 0); err != nil {
		t.Fatal(err)
	}
	perInteraction := float64(tr.Flops) / float64(g.Interactions())
	if perInteraction != 18 {
		t.Fatalf("math variant: %.2f flops/interaction, want 18", perInteraction)
	}

	// Karp variant executes strictly more flops (and zero sqrt/div).
	gk := GravMicro{Variant: GravKarp, NBodies: 4, Iters: 5, TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 1}
	pk, stk, _ := gk.Build()
	var trk isa.Trace
	if err := isa.Run(pk, stk, &trk, 0); err != nil {
		t.Fatal(err)
	}
	if trk.ByClass[isa.ClassFPSqrt] != 0 || trk.ByClass[isa.ClassFPDiv] != 0 {
		t.Fatalf("Karp variant used sqrt/div: %d/%d", trk.ByClass[isa.ClassFPSqrt], trk.ByClass[isa.ClassFPDiv])
	}
	if trk.Flops <= tr.Flops {
		t.Fatalf("Karp flops %d not > math flops %d", trk.Flops, tr.Flops)
	}
	if tr.ByClass[isa.ClassFPSqrt] != g.Interactions() {
		t.Fatalf("math variant sqrt count %d, want %d", tr.ByClass[isa.ClassFPSqrt], g.Interactions())
	}
}

func TestGravMicroBadParams(t *testing.T) {
	if _, _, err := (GravMicro{Variant: GravMath}).Build(); err == nil {
		t.Fatal("zero NBodies accepted")
	}
	g := GravMicro{Variant: GravKarp, NBodies: 4, Iters: 1, TableBits: 99, ChebDeg: 2, NRIters: 2}
	if _, _, err := g.Build(); err == nil {
		t.Fatal("bad TableBits accepted")
	}
}

func TestDefaultGravMicroMatchesPaperIterationCount(t *testing.T) {
	g := DefaultGravMicro(GravMath)
	if g.Iters != 500 {
		t.Fatalf("Iters = %d, the paper's loop count is 500", g.Iters)
	}
}

func TestCalibKernelsRun(t *testing.T) {
	for _, c := range CalibKernels() {
		p, st, err := c.Build(10)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		var tr isa.Trace
		if err := isa.Run(p, st, &tr, 1_000_000); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := uint64(10 * c.OpsPerIteration())
		if got := tr.ByClass[c.Class]; got < want {
			t.Fatalf("%s: %d ops of class %d, want ≥ %d", c.Name, got, c.Class, want)
		}
	}
}

func TestCalibKernelsDominatedByTargetClass(t *testing.T) {
	// The target class must be the plurality of non-branch, non-ALU
	// bookkeeping work — at least for the FP kernels.
	for _, c := range CalibKernels() {
		p, st, _ := c.Build(100)
		var tr isa.Trace
		if err := isa.Run(p, st, &tr, 0); err != nil {
			t.Fatal(err)
		}
		target := tr.ByClass[c.Class]
		for cls, n := range tr.ByClass {
			if isa.Class(cls) == c.Class || isa.Class(cls) == isa.ClassIntALU || isa.Class(cls) == isa.ClassBranch {
				continue
			}
			if n > target {
				t.Fatalf("%s: class %d count %d exceeds target class count %d", c.Name, cls, n, target)
			}
		}
	}
}

func TestCalibKernelBadIters(t *testing.T) {
	if _, _, err := CalibKernels()[0].Build(0); err == nil {
		t.Fatal("zero iters accepted")
	}
}

func TestGravMicroUnderCMSvsNarrowMolecules(t *testing.T) {
	// Ablation sanity: the 128-bit molecule format must not be slower than
	// the 64-bit format on the same kernel.
	g := GravMicro{Variant: GravKarp, NBodies: 4, Iters: 50, TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 3}

	run := func(wide bool) uint64 {
		p, st, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := cms.NewMachine(cms.DefaultParams(), vliw.TM5600Timing())
		m.Trans.Wide = wide
		cycles, _, err := m.Run(p, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	wideC, narrowC := run(true), run(false)
	if wideC > narrowC {
		t.Fatalf("wide molecules slower: %d vs %d cycles", wideC, narrowC)
	}
}

// reference computes the accelerations in Go using the exact arithmetic
// sequence the generated program executes, so results can be compared
// bit-for-bit against the ISA run.
func (g GravMicro) reference() (ax, ay, az float64, err error) {
	xj, yj, zj, bodies := g.particles()
	var table []float64
	if g.Variant == GravKarp {
		table, err = rsqrt.MonomialTable(g.TableBits, g.ChebDeg)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for it := 0; it < g.Iters; it++ {
		for i := 0; i < g.NBodies; i++ {
			xk := bodies[i*4+0]
			yk := bodies[i*4+1]
			zk := bodies[i*4+2]
			mk := bodies[i*4+3]
			dx := xk - xj
			dy := yk - yj
			dz := zk - zj
			r2 := dx*dx + dy*dy + dz*dz
			var rinv3 float64
			if g.Variant == GravMath {
				r := math.Sqrt(r2)
				rinv3 = 1.0 / (r * r2)
			} else {
				y := g.karpEval(table, r2)
				rinv3 = y * y * y
			}
			s := mk * rinv3
			ax += s * dx
			ay += s * dy
			az += s * dz
		}
	}
	return ax, ay, az, nil
}

// karpEval mirrors emitKarpRsqrt op-for-op.
func (g GravMicro) karpEval(table []float64, x float64) float64 {
	bits := math.Float64bits(x)
	bexp := int(bits >> 52 & 0x7FF)
	mant := bits & (1<<52 - 1)
	p := (bexp + 1) & 1
	m := math.Float64frombits(1023<<52 | mant)
	j := int(mant >> (52 - uint(g.TableBits)))
	idx := (p << g.TableBits) | j
	base := idx * (g.ChebDeg + 1)
	y := table[base+g.ChebDeg]
	for k := g.ChebDeg - 1; k >= 0; k-- {
		y = y*m + table[base+k]
	}
	scale := math.Float64frombits(uint64((3069+p-bexp)>>1) << 52)
	y = y * scale
	if g.NRIters > 0 {
		xh := 0.5 * x
		for i := 0; i < g.NRIters; i++ {
			t := y * y
			t = xh * t
			t = 1.5 - t
			y = y * t
		}
	}
	return y
}

// readAccel extracts the accumulated acceleration from a finished run.
func readAccel(st *isa.State) (ax, ay, az float64) {
	return st.LoadF(addrAX), st.LoadF(addrAY), st.LoadF(addrAZ)
}
