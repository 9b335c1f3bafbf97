package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

func allArchs() []*Arch {
	return []*Arch{
		PentiumIII500(), AlphaEV56_533(), Power3_375(), AthlonMP1200(),
		PentiumPro200(), PentiumII333(), R10000_250(),
		Power2_66(), Alpha21064_150(), SuperSPARC40(),
	}
}

func TestAllArchsValidate(t *testing.T) {
	for _, a := range allArchs() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	a := PentiumIII500()
	a.ClockMHz = 0
	if err := a.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	a = PentiumIII500()
	a.IssueWidth = 0
	if err := a.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	a = PentiumIII500()
	a.Window = 0
	if err := a.Validate(); err == nil {
		t.Error("OoO with zero window accepted")
	}
	a = PentiumIII500()
	a.FPDiv.Count = 0
	if err := a.Validate(); err == nil {
		t.Error("zero-unit pool accepted")
	}
	a = PentiumIII500()
	a.PredictAccuracy = 1.5
	if err := a.Validate(); err == nil {
		t.Error("accuracy > 1 accepted")
	}
	a = PentiumIII500()
	a.LoadMissRate = -0.1
	if err := a.Validate(); err == nil {
		t.Error("negative miss rate accepted")
	}
}

func TestRunPreservesSemantics(t *testing.T) {
	// Timing must not change architectural results: compare against the
	// reference interpreter.
	src := `
		movi r1, 0
		movi r2, 1
		fmovi f0, 1.0
	loop:
		add  r1, r1, r2
		fadd f0, f0, f0
		fsqrt f1, f0
		cmpi r1, 20
		jl   loop
		hlt
	`
	p := isa.MustAssemble(src)
	ref := isa.NewState(0)
	if err := isa.Run(p, ref, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, a := range allArchs() {
		st := isa.NewState(0)
		if _, err := a.Run(p, st, 0); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if !ref.Equal(st) {
			t.Fatalf("%s: architectural state diverged", a.Name)
		}
	}
}

func TestThroughputBoundRespected(t *testing.T) {
	// Independent fsqrt stream: cycles/op must approach the sqrt unit's
	// reciprocal throughput, never beat it.
	a := Power3_375()
	k := kernels.CalibKernels()
	var sqrtKernel *kernels.CalibKernel
	for i := range k {
		if k[i].Class == isa.ClassFPSqrt {
			sqrtKernel = &k[i]
		}
	}
	if sqrtKernel == nil {
		t.Fatal("no sqrt calibration kernel")
	}
	const iters = 2000
	p, st, err := sqrtKernel.Build(iters)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(p, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	perOp := res.Cycles / float64(iters*sqrtKernel.OpsPerIteration())
	rt := a.FPSqrt.RecipThroughput
	if perOp < rt*0.99 {
		t.Fatalf("sqrt stream %f cycles/op beats unit throughput %f", perOp, rt)
	}
	if perOp > rt*1.3 {
		t.Fatalf("sqrt stream %f cycles/op far above unit throughput %f", perOp, rt)
	}
}

func TestLatencyBoundOnSerialChain(t *testing.T) {
	// A serial fadd chain runs at ~latency cycles per op on any OoO core.
	src := `
		movi r1, 0
		fmovi f0, 1.0
	loop:
		fadd f0, f0, f0
		fadd f0, f0, f0
		fadd f0, f0, f0
		fadd f0, f0, f0
		addi r1, r1, 1
		cmpi r1, 500
		jl loop
		hlt
	`
	p := isa.MustAssemble(src)
	a := Power3_375()
	st := isa.NewState(0)
	res, err := a.Run(p, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	perAdd := res.Cycles / (500 * 4)
	lat := a.FPAdd.Latency
	if perAdd < lat*0.95 || perAdd > lat*1.2 {
		t.Fatalf("serial fadd chain %f cycles/op, want ≈ latency %f", perAdd, lat)
	}
}

func TestIndependentStreamsBeatSerialChain(t *testing.T) {
	serial := `
		movi r1, 0
	loop:
		fadd f0, f0, f2
		fadd f0, f0, f2
		fadd f0, f0, f2
		fadd f0, f0, f2
		addi r1, r1, 1
		cmpi r1, 300
		jl loop
		hlt
	`
	parallel := `
		movi r1, 0
	loop:
		fadd f3, f0, f2
		fadd f4, f0, f2
		fadd f5, f0, f2
		fadd f6, f0, f2
		addi r1, r1, 1
		cmpi r1, 300
		jl loop
		hlt
	`
	a := AthlonMP1200()
	run := func(src string) float64 {
		p := isa.MustAssemble(src)
		st := isa.NewState(0)
		res, err := a.Run(p, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	s, par := run(serial), run(parallel)
	if par*1.5 > s {
		t.Fatalf("independent adds (%f) not meaningfully faster than serial chain (%f)", par, s)
	}
}

func TestInOrderSlowerThanOoOOnSameSpec(t *testing.T) {
	// The same core run in-order must never beat its out-of-order self on
	// a dependency-heavy kernel.
	g := kernels.DefaultGravMicro(kernels.GravMath)
	g.Iters = 20
	run := func(inorder bool) float64 {
		a := Power3_375()
		a.InOrder = inorder
		p, st, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run(p, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	ooo, ino := run(false), run(true)
	if ooo > ino {
		t.Fatalf("OoO (%f cycles) slower than in-order (%f)", ooo, ino)
	}
}

func TestBiggerWindowNotSlower(t *testing.T) {
	g := kernels.DefaultGravMicro(kernels.GravMath)
	g.Iters = 20
	run := func(window int) float64 {
		a := Power3_375()
		a.Window = window
		p, st, _ := g.Build()
		res, err := a.Run(p, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	small, big := run(8), run(128)
	if big > small {
		t.Fatalf("larger window slower: %f vs %f cycles", big, small)
	}
	if big >= small*0.95 {
		t.Fatalf("window size had no effect: %f vs %f", big, small)
	}
}

func TestHigherClockFasterSeconds(t *testing.T) {
	g := kernels.DefaultGravMicro(kernels.GravMath)
	g.Iters = 10
	run := func(mhz float64) float64 {
		a := PentiumIII500()
		a.ClockMHz = mhz
		p, st, _ := g.Build()
		res, err := a.Run(p, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	if run(1000) >= run(500) {
		t.Fatal("doubling the clock did not reduce seconds")
	}
}

func TestRunFuel(t *testing.T) {
	p := isa.MustAssemble("spin: jmp spin")
	a := PentiumIII500()
	st := isa.NewState(0)
	if _, err := a.Run(p, st, 1000); err != ErrFuel {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
}

func TestCrusoeProcessorInterface(t *testing.T) {
	var _ Processor = NewTM5600()
	var _ Processor = NewTM5800()
	var _ Processor = PentiumIII500().AsProcessor()

	c := NewTM5600()
	if c.ClockMHz() != 633 {
		t.Fatalf("TM5600 clock = %v", c.ClockMHz())
	}
	g := kernels.DefaultGravMicro(kernels.GravMath)
	g.Iters = 20
	p, st, _ := g.Build()
	res, err := c.RunKernel(p, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Trace.Flops == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestTM5800FasterThanTM5600(t *testing.T) {
	// The paper: MetaBlade2's TM5800 + CMS 4.3.x is ~50% faster on the
	// treecode; at minimum it must be strictly faster on FP kernels.
	g := kernels.DefaultGravMicro(kernels.GravMath)
	g.Iters = 50
	run := func(c *Crusoe) float64 {
		p, st, _ := g.Build()
		res, err := c.RunKernel(p, st)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	t56, t58 := run(NewTM5600()), run(NewTM5800())
	if t58 >= t56 {
		t.Fatalf("TM5800 (%g s) not faster than TM5600 (%g s)", t58, t56)
	}
}

func TestCalibrateProducesSaneCosts(t *testing.T) {
	for _, proc := range []Processor{PentiumIII500().AsProcessor(), NewTM5600()} {
		e, err := Calibrate(proc)
		if err != nil {
			t.Fatal(err)
		}
		if e.ClockMHz != proc.ClockMHz() {
			t.Fatalf("clock mismatch")
		}
		for c := isa.Class(1); c < isa.NumClasses; c++ {
			if c == isa.ClassNop {
				continue
			}
			if e.Cost[c] <= 0 {
				t.Fatalf("%s: class %d cost %f", proc.Name(), c, e.Cost[c])
			}
		}
		// Divide and sqrt must be the expensive classes.
		if e.Cost[isa.ClassFPDiv] < 2*e.Cost[isa.ClassFPAdd] {
			t.Fatalf("%s: fdiv cost %f not >> fadd cost %f", proc.Name(), e.Cost[isa.ClassFPDiv], e.Cost[isa.ClassFPAdd])
		}
	}
}

func TestEffCostsTiming(t *testing.T) {
	e := EffCosts{Processor: "x", ClockMHz: 1000}
	e.Cost[isa.ClassFPAdd] = 2
	var mix isa.Trace
	mix.ByClass[isa.ClassFPAdd] = 1000
	mix.Flops = 1000
	if got := e.Cycles(&mix); got != 2000 {
		t.Fatalf("Cycles = %f, want 2000", got)
	}
	// 2000 cycles at 1 GHz = 2 µs; 1000 flops / 2 µs = 500 Mflops.
	if got := e.Mflops(&mix); got != 500 {
		t.Fatalf("Mflops = %f, want 500", got)
	}
	if got := e.Mops(2000, &mix); got != 1000 {
		t.Fatalf("Mops = %f, want 1000", got)
	}
}

func TestTable1Shape(t *testing.T) {
	// The paper's Table 1 orderings, which the models must reproduce:
	// Math sqrt: Power3 > Athlon > TM5600 > PIII > Alpha.
	// Karp sqrt: everyone improves; Power3 and Athlon lead; the TM5600
	// "suffers a bit" (smallest relative gain among the five).
	if testing.Short() {
		t.Skip("full microkernel sweep in -short mode")
	}
	mflops := func(p Processor, v kernels.GravVariant) float64 {
		g := kernels.DefaultGravMicro(v)
		prog, st, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunKernel(prog, st)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mflops()
	}
	cpus := EvaluationCPUs()
	math := make([]float64, len(cpus))
	karp := make([]float64, len(cpus))
	for i, p := range cpus {
		math[i] = mflops(p, kernels.GravMath)
		karp[i] = mflops(p, kernels.GravKarp)
	}
	const (
		piii = iota
		alpha
		tm
		power3
		athlon
	)
	if !(math[power3] > math[athlon] && math[athlon] > math[tm] &&
		math[tm] > math[piii] && math[piii] > math[alpha]) {
		t.Fatalf("math column ordering wrong: %v", math)
	}
	for i := range cpus {
		if karp[i] <= math[i] {
			t.Fatalf("%s: Karp (%f) not faster than Math (%f)", cpus[i].Name(), karp[i], math[i])
		}
	}
	// "The performance of the Transmeta suffers a bit with the Karp sqrt
	// benchmark" — its relative gain must trail the comparably clocked
	// PIII and Alpha (in the paper: 1.26 vs 1.57 and 2.34).
	tmGain := karp[tm] / math[tm]
	for _, i := range []int{piii, alpha} {
		if karp[i]/math[i] <= tmGain {
			t.Fatalf("%s gain %.2f not above TM5600 gain %.2f — paper says the Transmeta suffers on Karp",
				cpus[i].Name(), karp[i]/math[i], tmGain)
		}
	}
	if alpha == 0 { // keep the named constants referenced
		_ = athlon
	}
}
