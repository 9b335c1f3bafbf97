package nas

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLCGAgainstNPBDefinition(t *testing.T) {
	// First values of the NPB stream from seed 271828183 follow
	// x_{k+1} = 5^13·x_k mod 2^46 exactly.
	g := NewLCG(271828183)
	seed := uint64(271828183)
	for i := 0; i < 100; i++ {
		v := g.Next()
		seed = (seed * 1220703125) & (1<<46 - 1)
		want := float64(seed) / (1 << 46)
		if v != want {
			t.Fatalf("step %d: %v != %v", i, v, want)
		}
	}
}

func TestLCGSkipMatchesSequential(t *testing.T) {
	for _, skip := range []uint64{0, 1, 2, 7, 100, 12345} {
		a := NewLCG(271828183)
		for i := uint64(0); i < skip; i++ {
			a.Next()
		}
		b := NewLCG(271828183)
		b.Skip(skip)
		if a.Seed() != b.Seed() {
			t.Fatalf("skip %d: seeds diverge", skip)
		}
	}
}

func TestLCGSkipProperty(t *testing.T) {
	f := func(n uint16) bool {
		a := NewLCG(314159265)
		for i := 0; i < int(n); i++ {
			a.Next()
		}
		b := NewLCG(314159265)
		b.Skip(uint64(n))
		return a.Seed() == b.Seed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEPClassSMatchesNPBReference(t *testing.T) {
	// The official NPB verification sums — exact algorithm reproduction.
	r, err := NewEP().Run(ClassS)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatalf("EP class S failed NPB verification (checksum %v)", r.Checksum)
	}
	if r.Ops <= 0 || r.Mix.Flops == 0 {
		t.Fatal("EP reported no work")
	}
}

func TestEPGaussianMoments(t *testing.T) {
	// The accepted deviates are standard normals: the acceptance rate is
	// π/4 and the annulus counts decay.
	out := epCompute(271828183, 0, 1<<18)
	n := float64(int(1) << 18)
	rate := out.Pairs / n
	if math.Abs(rate-math.Pi/4) > 0.01 {
		t.Fatalf("acceptance rate %v, want ≈π/4", rate)
	}
	if !(out.Q[0] > out.Q[1] && out.Q[1] > out.Q[2] && out.Q[2] > out.Q[3]) {
		t.Fatalf("annulus counts not decaying: %v", out.Q)
	}
	// Mean of the Gaussian sums ≈ 0 relative to the count.
	if math.Abs(out.SX)/out.Pairs > 0.01 || math.Abs(out.SY)/out.Pairs > 0.01 {
		t.Fatalf("sums too large: %v %v", out.SX, out.SY)
	}
}

func TestEPParallelDecompositionExact(t *testing.T) {
	// Splitting the pair range across workers reproduces the serial
	// stream exactly thanks to the LCG jump — EP's defining property. The
	// pair counts match exactly; the sums add the same terms grouped per
	// worker, so they agree only to rounding (1e-9).
	const total = 1 << 16
	serial := epCompute(271828183, 0, total)
	var sx, sy, pairs float64
	for _, span := range [][2]uint64{{0, total / 4}, {total / 4, total / 4}, {total / 2, total / 2}} {
		part := epCompute(271828183, span[0], span[1])
		sx += part.SX
		sy += part.SY
		pairs += part.Pairs
	}
	if pairs != serial.Pairs {
		t.Fatalf("pair counts differ: %v vs %v", pairs, serial.Pairs)
	}
	if math.Abs(sx-serial.SX) > 1e-9 || math.Abs(sy-serial.SY) > 1e-9 {
		t.Fatalf("parallel sums (%v,%v) != serial (%v,%v)", sx, sy, serial.SX, serial.SY)
	}
}

func TestISSortsAndVerifies(t *testing.T) {
	r, err := NewISKernel().Run(ClassS)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatal("IS class S failed verification")
	}
	if r.Ops != float64(ISMaxIterations)*(1<<16) {
		t.Fatalf("IS ops = %v", r.Ops)
	}
}

func TestISKeyDistribution(t *testing.T) {
	// Keys are sums of four uniforms: near-Gaussian around maxKey/2 and
	// within range.
	keys := isCreateSeq(1<<14, 1<<11)
	var mean float64
	for _, k := range keys {
		if k < 0 || k >= 1<<11 {
			t.Fatalf("key %d out of range", k)
		}
		mean += float64(k)
	}
	mean /= float64(len(keys))
	if math.Abs(mean-1024) > 20 {
		t.Fatalf("key mean %v, want ≈1024", mean)
	}
}

func TestMGConvergesAndVerifies(t *testing.T) {
	r, err := NewMGKernel().Run(ClassS)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatalf("MG class S failed (checksum %v)", r.Checksum)
	}
}

func TestMGResidualMonotone(t *testing.T) {
	_, norms, err := (&MG{}).run(32, 6, ClassS)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(norms); i++ {
		if norms[i] >= norms[i-1] {
			t.Fatalf("residual rose at cycle %d: %v", i, norms)
		}
	}
	// Per-cycle contraction must be multigrid-grade, not smoother-grade.
	rate := norms[len(norms)-1] / norms[len(norms)-2]
	if rate > 0.5 {
		t.Fatalf("V-cycle contraction rate %v too weak", rate)
	}
}

func TestMGOperatorsConsistency(t *testing.T) {
	// A applied to a constant field is zero (row sum of a-coefficients is
	// zero) — the compatibility condition for the periodic Poisson solve.
	g := newGrid(8)
	for i := range g.v {
		g.v[i] = 3.7
	}
	out := newGrid(8)
	base := newGrid(8)
	var w mgWork
	stencil27(out, base, g, mgA, 1, &w)
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			for k := 1; k <= 8; k++ {
				if math.Abs(*out.at(i, j, k)) > 1e-12 {
					t.Fatalf("A·const = %v at (%d,%d,%d)", *out.at(i, j, k), i, j, k)
				}
			}
		}
	}
}

func TestMGRestrictionPreservesConstants(t *testing.T) {
	fine := newGrid(8)
	for i := range fine.v {
		fine.v[i] = 2.0
	}
	coarse := newGrid(4)
	var w mgWork
	restrictGrid(coarse, fine, &w)
	// Full weighting of a constant: 0.5 + 6·0.25 + 12·0.125 + 8·0.0625 = 4.
	for i := 1; i <= 4; i++ {
		if math.Abs(*coarse.at(i, 1, 1)-8.0) > 1e-12 {
			t.Fatalf("restriction of constant = %v, want 8 (weight sum 4 × 2)", *coarse.at(i, 1, 1))
		}
	}
}

func TestCFDKernelsConvergeClassS(t *testing.T) {
	for _, k := range []Kernel{NewBTKernel(), NewSPKernel(), NewLUKernel()} {
		r, err := k.Run(ClassS)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		if !r.Verified {
			t.Fatalf("%s class S failed verification (checksum %v)", k.Name(), r.Checksum)
		}
		if r.Ops <= 0 {
			t.Fatalf("%s reported no ops", k.Name())
		}
	}
}

func TestCFDSolversAgreeOnSolution(t *testing.T) {
	// BT and LU solve the same manufactured problem: their final
	// checksums (≈ checksum of the exact solution) must agree closely.
	bt, err := NewBTKernel().Run(ClassS)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := NewLUKernel().Run(ClassS)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bt.Checksum-lu.Checksum) > 1e-3*math.Abs(bt.Checksum) {
		t.Fatalf("BT checksum %v vs LU %v", bt.Checksum, lu.Checksum)
	}
}

func TestBlockTriSolveExact(t *testing.T) {
	// Manufacture a block-tridiagonal system with a known solution and
	// check the solver reproduces it to roundoff.
	const m = 6
	var w blasWork
	sub := make([]Mat5, m)
	diag := make([]Mat5, m)
	sup := make([]Mat5, m)
	want := make([]Vec5, m)
	rhs := make([]Vec5, m)
	// Diagonally dominant random-ish blocks.
	for i := 0; i < m; i++ {
		for a := 0; a < NComp; a++ {
			for b := 0; b < NComp; b++ {
				sub[i][a*NComp+b] = 0.01 * float64((i+a+2*b)%5)
				sup[i][a*NComp+b] = 0.02 * float64((i+2*a+b)%4)
				if a == b {
					diag[i][a*NComp+b] = 4 + float64(i%3)
				} else {
					diag[i][a*NComp+b] = 0.1 * float64((a*b+i)%3)
				}
			}
			want[i][a] = float64(i+1) + 0.5*float64(a)
		}
	}
	// rhs = A·want.
	var tmp Vec5
	for i := 0; i < m; i++ {
		diag[i].MulVec(&want[i], &tmp, &w)
		rhs[i] = tmp
		if i > 0 {
			sub[i].MulVec(&want[i-1], &tmp, &w)
			for c := 0; c < NComp; c++ {
				rhs[i][c] += tmp[c]
			}
		}
		if i < m-1 {
			sup[i].MulVec(&want[i+1], &tmp, &w)
			for c := 0; c < NComp; c++ {
				rhs[i][c] += tmp[c]
			}
		}
	}
	blockTriSolve(sub, diag, sup, rhs, &w)
	for i := 0; i < m; i++ {
		for c := 0; c < NComp; c++ {
			if math.Abs(rhs[i][c]-want[i][c]) > 1e-10 {
				t.Fatalf("block %d comp %d: %v != %v", i, c, rhs[i][c], want[i][c])
			}
		}
	}
}

func TestPentaSolveExact(t *testing.T) {
	const m = 9
	var w blasWork
	e := make([]float64, m)
	a := make([]float64, m)
	d := make([]float64, m)
	c := make([]float64, m)
	f := make([]float64, m)
	want := make([]float64, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		e[i], a[i], c[i], f[i] = 0.1, -0.7, -0.6, 0.15
		d[i] = 3 + 0.1*float64(i)
		want[i] = float64(i*i) - 4
	}
	for i := 0; i < m; i++ {
		rhs[i] = d[i] * want[i]
		if i >= 1 {
			rhs[i] += a[i] * want[i-1]
		}
		if i >= 2 {
			rhs[i] += e[i] * want[i-2]
		}
		if i < m-1 {
			rhs[i] += c[i] * want[i+1]
		}
		if i < m-2 {
			rhs[i] += f[i] * want[i+2]
		}
	}
	pentaSolve(e, a, d, c, f, rhs, &w)
	for i := 0; i < m; i++ {
		if math.Abs(rhs[i]-want[i]) > 1e-10 {
			t.Fatalf("row %d: %v != %v", i, rhs[i], want[i])
		}
	}
}

func TestLU5FactorSolve(t *testing.T) {
	var w blasWork
	var a Mat5
	for i := 0; i < NComp; i++ {
		for j := 0; j < NComp; j++ {
			if i == j {
				a[i*NComp+j] = 5
			} else {
				a[i*NComp+j] = 0.3 * float64((i+2*j)%4)
			}
		}
	}
	want := Vec5{1, -2, 3, 0.5, -0.25}
	var b Vec5
	a.MulVec(&want, &b, &w)
	var lu lu5
	lu.Factor(&a, &w)
	var got Vec5
	lu.Solve(&b, &got)
	for i := 0; i < NComp; i++ {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("comp %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestUnsupportedClasses(t *testing.T) {
	for _, k := range Table3Kernels() {
		if _, err := k.Run(Class('Z')); err == nil {
			t.Errorf("%s accepted class Z", k.Name())
		}
	}
}

func TestAllKernelsReportMixes(t *testing.T) {
	for _, k := range Table3Kernels() {
		r, err := k.Run(ClassS)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		if r.Mix.Instrs == 0 {
			t.Errorf("%s: empty op mix", k.Name())
		}
		if r.Kernel != k.Name() {
			t.Errorf("kernel name mismatch: %q vs %q", r.Kernel, k.Name())
		}
	}
}

func TestTable3KernelOrder(t *testing.T) {
	names := []string{"BT", "SP", "LU", "MG", "EP", "IS"}
	ks := Table3Kernels()
	if len(ks) != len(names) {
		t.Fatalf("Table3Kernels has %d entries", len(ks))
	}
	for i, k := range ks {
		if k.Name() != names[i] {
			t.Fatalf("row %d = %s, want %s (the paper's order)", i, k.Name(), names[i])
		}
	}
}
