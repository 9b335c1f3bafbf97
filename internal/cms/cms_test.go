package cms

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/vliw"
)

func newTestMachine(hot int) *Machine {
	p := DefaultParams()
	p.HotThreshold = hot
	return NewMachine(p, vliw.TM5600Timing())
}

// runBoth executes the program under the reference interpreter and under
// CMS and requires identical final architectural state.
func runBoth(t *testing.T, src string, memWords int, hot int) (*isa.State, *Machine) {
	t.Helper()
	p := isa.MustAssemble(src)
	ref := isa.NewState(memWords)
	var refTr isa.Trace
	if err := isa.Run(p, ref, &refTr, 10_000_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	m := newTestMachine(hot)
	st := isa.NewState(memWords)
	_, cmsTr, err := m.Run(p, st, 0)
	if err != nil {
		t.Fatalf("cms run: %v", err)
	}
	if !ref.Equal(st) {
		t.Fatalf("CMS state diverged from reference.\nref:  R=%v F=%v PC=%d Z=%v L=%v\ncms:  R=%v F=%v PC=%d Z=%v L=%v",
			ref.R, ref.F, ref.PC, ref.FlagZ, ref.FlagL,
			st.R, st.F, st.PC, st.FlagZ, st.FlagL)
	}
	if refTr.Flops != cmsTr.Flops {
		t.Fatalf("flop counts diverged: ref %d, cms %d", refTr.Flops, cmsTr.Flops)
	}
	return st, m
}

const sumLoopSrc = `
	movi r1, 0
	movi r2, 1
loop:
	add  r1, r1, r2
	addi r2, r2, 1
	cmpi r2, 100
	jle  loop
	hlt
`

func TestEquivalenceSumLoopInterpreted(t *testing.T) {
	st, m := runBoth(t, sumLoopSrc, 0, 1_000_000) // never hot
	if st.R[1] != 5050 {
		t.Fatalf("sum = %d, want 5050", st.R[1])
	}
	if s := m.Stats(); s.Translations != 0 || s.NativeExecutions != 0 {
		t.Fatalf("cold run translated anyway: %+v", s)
	}
}

func TestEquivalenceSumLoopTranslated(t *testing.T) {
	st, m := runBoth(t, sumLoopSrc, 0, 1) // immediately hot
	if st.R[1] != 5050 {
		t.Fatalf("sum = %d, want 5050", st.R[1])
	}
	s := m.Stats()
	if s.Translations == 0 || s.NativeExecutions == 0 {
		t.Fatalf("hot run did not translate: %+v", s)
	}
	if s.InterpInstrs != 0 {
		t.Fatalf("hot-threshold-1 run interpreted %d instrs", s.InterpInstrs)
	}
}

func TestEquivalenceMixedHotCold(t *testing.T) {
	st, m := runBoth(t, sumLoopSrc, 0, 10)
	if st.R[1] != 5050 {
		t.Fatalf("sum = %d, want 5050", st.R[1])
	}
	s := m.Stats()
	if s.InterpInstrs == 0 || s.NativeExecutions == 0 {
		t.Fatalf("expected both interpretation and native execution: %+v", s)
	}
}

func TestEquivalenceFPKernel(t *testing.T) {
	src := `
		movi r1, 0
		movi r2, 50
		fmovi f0, 1.0
		fmovi f1, 1.0
	loop:
		fadd  f1, f1, f0
		fmul  f2, f1, f1
		fdiv  f3, f0, f1
		fsqrt f4, f2
		fsub  f5, f4, f1
		addi  r1, r1, 1
		cmp   r1, r2
		jl    loop
		hlt
	`
	st, _ := runBoth(t, src, 0, 1)
	if st.F[4] != 51 { // sqrt((1+50)^2)
		t.Fatalf("f4 = %v, want 51", st.F[4])
	}
}

func TestEquivalenceMemoryKernel(t *testing.T) {
	src := `
		movi r1, 0
		movi r2, 16
	init:
		st   [r1], r1
		addi r1, r1, 1
		cmp  r1, r2
		jl   init
		movi r1, 0
		movi r3, 0
	sum:
		ld   r4, [r1]
		add  r3, r3, r4
		addi r1, r1, 1
		cmp  r1, r2
		jl   sum
		hlt
	`
	st, _ := runBoth(t, src, 16, 1)
	if st.R[3] != 120 {
		t.Fatalf("sum = %d, want 120", st.R[3])
	}
}

func TestEquivalenceBitReinterpret(t *testing.T) {
	// The float→int bit reinterpretation via memory, as the Karp kernel
	// uses; store/load ordering must survive scheduling.
	src := `
		movi r1, 0
		movi r9, 0
		fmovi f0, 2.0
	loop:
		fst  [r1], f0
		ld   r2, [r1]
		shr  r3, r2, 52
		st   [r1+1], r3
		fadd f0, f0, f0
		addi r9, r9, 1
		cmpi r9, 40
		jl   loop
		hlt
	`
	st, _ := runBoth(t, src, 4, 1)
	if st.R[3] == 0 {
		t.Fatal("exponent extraction produced 0")
	}
}

func TestEquivalenceRandomPrograms(t *testing.T) {
	// Random straight-line arithmetic wrapped in a counted loop: scheduling
	// must preserve semantics for arbitrary dependence patterns.
	rng := rand.New(rand.NewSource(12345))
	intOps := []string{"add", "sub", "mul", "and", "or", "xor"}
	fpOps := []string{"fadd", "fsub", "fmul"}
	for trial := 0; trial < 60; trial++ {
		src := "movi r15, 0\nmovi r14, 5\n"
		// Seed registers.
		src += "movi r1, 3\nmovi r2, -7\nmovi r3, 11\nfmovi f1, 1.5\nfmovi f2, -0.25\nfmovi f3, 3.0\n"
		src += "top:\n"
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				op := intOps[rng.Intn(len(intOps))]
				src += op + " r" + itoa(1+rng.Intn(10)) + ", r" + itoa(1+rng.Intn(12)) + ", r" + itoa(1+rng.Intn(12)) + "\n"
			case 2, 3:
				op := fpOps[rng.Intn(len(fpOps))]
				src += op + " f" + itoa(1+rng.Intn(10)) + ", f" + itoa(1+rng.Intn(12)) + ", f" + itoa(1+rng.Intn(12)) + "\n"
			case 4:
				// Memory traffic within the 8-word arena based at r0(=0).
				if rng.Intn(2) == 0 {
					src += "st [r0+" + itoa(rng.Intn(8)) + "], r" + itoa(1+rng.Intn(12)) + "\n"
				} else {
					src += "ld r" + itoa(1+rng.Intn(10)) + ", [r0+" + itoa(rng.Intn(8)) + "]\n"
				}
			}
		}
		src += "addi r15, r15, 1\ncmp r15, r14\njl top\nhlt\n"
		runBoth(t, src, 8, 1)
		runBoth(t, src, 8, 3)
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

func TestTranslationCacheAmortisation(t *testing.T) {
	// Running the loop body many times must make translated execution far
	// cheaper per iteration than interpretation: the paper's "initial cost
	// of the translation is amortized over repeated executions".
	src := `
		movi r1, 0
		movi r2, 10000
	loop:
		addi r1, r1, 1
		cmp  r1, r2
		jl   loop
		hlt
	`
	p := isa.MustAssemble(src)

	cold := newTestMachine(1 << 30) // never translate
	st1 := isa.NewState(0)
	interpCycles, _, err := cold.Run(p, st1, 0)
	if err != nil {
		t.Fatal(err)
	}

	hot := newTestMachine(8)
	st2 := isa.NewState(0)
	hotCycles, _, err := hot.Run(p, st2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hotCycles*2 >= interpCycles {
		t.Fatalf("translation did not pay off: hot %d vs interp %d cycles", hotCycles, interpCycles)
	}
	s := hot.Stats()
	if s.ChainedDispatches == 0 {
		t.Fatalf("loop should chain to itself: %+v", s)
	}
}

func TestHotThresholdFiltersColdCode(t *testing.T) {
	// A region executed once (the prologue) must not be translated when
	// the threshold is above 1.
	src := `
		movi r1, 0
		movi r2, 200
	loop:
		addi r1, r1, 1
		cmp  r1, r2
		jl   loop
		hlt
	`
	p := isa.MustAssemble(src)
	m := newTestMachine(16)
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Translations != 1 {
		t.Fatalf("Translations = %d, want exactly 1 (the loop head)", s.Translations)
	}
}

func TestCacheEviction(t *testing.T) {
	// A tiny cache must evict; the program still runs correctly.
	src := sumLoopSrc
	p := isa.MustAssemble(src)
	params := DefaultParams()
	params.HotThreshold = 1
	params.CacheCapacityAtoms = 4 // far below one translation
	m := NewMachine(params, vliw.TM5600Timing())
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	if st.R[1] != 5050 {
		t.Fatalf("sum = %d, want 5050", st.R[1])
	}
	if m.Stats().CacheEvictions == 0 {
		t.Fatal("tiny cache never evicted")
	}
}

func TestPackingDensityAboveOne(t *testing.T) {
	// Independent operations must pack >1 atom per molecule.
	src := `
		movi r1, 1
		movi r2, 2
		movi r3, 3
		movi r4, 4
		fmovi f1, 1.0
		movi r9, 0
	loop:
		add  r5, r1, r2
		sub  r6, r3, r4
		fadd f2, f1, f1
		ld   r7, [r0]
		add  r8, r1, r3
		xor  r10, r2, r4
		fmul f3, f1, f1
		st   [r0+1], r5
		addi r9, r9, 1
		cmpi r9, 100
		jl   loop
		hlt
	`
	p := isa.MustAssemble(src)
	m := newTestMachine(1)
	st := isa.NewState(4)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().PackingDensity()
	if d <= 1.3 {
		t.Fatalf("packing density = %.2f, want > 1.3 for independent ops", d)
	}
}

func TestPackingDensityGuardsZeroMolecules(t *testing.T) {
	// A machine that never executed natively (or a zero Stats value) must
	// report density 0, not NaN — obs gauges and JSON output both choke
	// on NaN.
	var s Stats
	if d := s.PackingDensity(); d != 0 {
		t.Fatalf("PackingDensity on empty stats = %v, want 0", d)
	}
	m := newTestMachine(1_000_000) // never hot: interpretation only
	p := isa.MustAssemble("movi r1, 7\nhlt")
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	if d := m.Stats().PackingDensity(); d != 0 {
		t.Fatalf("PackingDensity with no native execution = %v, want 0", d)
	}
}

func TestTranslatorRespectsDependenceChains(t *testing.T) {
	// A fully serial chain cannot pack: density must stay near 1.
	src := `
		movi r1, 1
		movi r9, 0
	loop:
		add r1, r1, r1
		add r1, r1, r1
		add r1, r1, r1
		add r1, r1, r1
		addi r9, r9, 1
		cmpi r9, 50
		jl  loop
		hlt
	`
	p := isa.MustAssemble(src)
	m := newTestMachine(1)
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	// The loop-control ops legitimately pack beside the chain, but the
	// serial adds themselves cannot: density stays well below the 4-wide
	// machine's limit and below what independent code achieves.
	d := m.Stats().PackingDensity()
	if d > 2.0 {
		t.Fatalf("packing density = %.2f for serial chain, expected < 2", d)
	}
}

func TestTranslateProducesValidMolecules(t *testing.T) {
	srcs := []string{
		sumLoopSrc,
		"fmovi f0, 1.0\nfsqrt f1, f0\nfdiv f2, f1, f0\nhlt",
		"movi r1, 1\nst [r0], r1\nld r2, [r0]\nst [r0+1], r2\nhlt",
	}
	tr := NewTranslator()
	for _, src := range srcs {
		p := isa.MustAssemble(src)
		tl, err := tr.Translate(p, 0)
		if err != nil {
			t.Fatalf("translate %q: %v", src, err)
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("invalid translation for %q: %v", src, err)
		}
	}
}

func TestNarrowMoleculeFormat(t *testing.T) {
	// 64-bit molecules pack at most 2 atoms.
	tr := NewTranslator()
	tr.Wide = false
	p := isa.MustAssemble(`
		add r1, r2, r3
		sub r4, r5, r6
		fadd f1, f2, f3
		ld r7, [r0]
		hlt
	`)
	tl, err := tr.Translate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range tl.Molecules {
		if len(m.Atoms) > 2 {
			t.Fatalf("molecule %d has %d atoms in narrow mode", i, len(m.Atoms))
		}
		if m.Wide {
			t.Fatalf("molecule %d marked wide in narrow mode", i)
		}
	}
}

func TestRegionEndsAtUnconditionalJump(t *testing.T) {
	p := isa.MustAssemble(`
		movi r1, 1
		jmp  skip
		movi r1, 2
	skip:
		hlt
	`)
	tr := NewTranslator()
	tl, err := tr.Translate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.SrcInstrs != 2 {
		t.Fatalf("region covered %d instrs, want 2 (movi, jmp)", tl.SrcInstrs)
	}
}

func TestMaxRegionBound(t *testing.T) {
	src := ""
	for i := 0; i < 100; i++ {
		src += "addi r1, r1, 1\n"
	}
	src += "hlt"
	p := isa.MustAssemble(src)
	tr := NewTranslator()
	tr.MaxRegion = 10
	tl, err := tr.Translate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.SrcInstrs != 10 {
		t.Fatalf("SrcInstrs = %d, want 10", tl.SrcInstrs)
	}
	if tl.FallPC != 10 {
		t.Fatalf("FallPC = %d, want 10", tl.FallPC)
	}
}

func TestRunFuelLimit(t *testing.T) {
	p := isa.MustAssemble("spin: jmp spin")
	m := newTestMachine(1)
	st := isa.NewState(0)
	_, _, err := m.Run(p, st, 100_000)
	if err != ErrFuel {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
}

// TestRunOffProgramEnd: code that runs off the end of the program
// returns the reference interpreter's PC error, on the interpreted path
// and on the translated path (HotThreshold 1), instead of panicking.
func TestRunOffProgramEnd(t *testing.T) {
	p := isa.MustAssemble("movi r1, 1\nmovi r2, 2")
	if err := isa.Run(p, isa.NewState(0), nil, 0); err == nil || !strings.Contains(err.Error(), "PC 2 out of range") {
		t.Fatalf("reference run: err = %v, want PC 2 out of range", err)
	}
	for _, hot := range []int{DefaultParams().HotThreshold, 1} {
		m := newTestMachine(hot)
		st := isa.NewState(0)
		_, _, err := m.Run(p, st, 0)
		if err == nil || !strings.Contains(err.Error(), "PC 2 out of range") {
			t.Fatalf("hot=%d: err = %v, want PC 2 out of range", hot, err)
		}
		if st.R[1] != 1 || st.R[2] != 2 {
			t.Fatalf("hot=%d: r1=%d r2=%d, want 1,2", hot, st.R[1], st.R[2])
		}
		s := m.Stats()
		if hot == 1 && (s.Translations != 1 || s.InterpInstrs != 0) {
			t.Fatalf("hot=1 did not run translated: %+v", s)
		}
		if hot > 1 && (s.Translations != 0 || s.InterpInstrs != 2) {
			t.Fatalf("hot=%d did not run interpreted: %+v", hot, s)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	p := isa.MustAssemble(sumLoopSrc)
	m := newTestMachine(1)
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TotalCycles() == 0 {
		t.Fatal("no cycles recorded")
	}
	m.Reset()
	if m.Stats().TotalCycles() != 0 || len(m.cache) != 0 || len(m.profile) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestStatsTotalCyclesConsistent(t *testing.T) {
	p := isa.MustAssemble(sumLoopSrc)
	m := newTestMachine(8)
	st := isa.NewState(0)
	cycles, _, err := m.Run(p, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if cycles != s.TotalCycles() {
		t.Fatalf("Run returned %d cycles, stats sum to %d", cycles, s.TotalCycles())
	}
	sum := s.InterpCycles + s.TranslateCycles + s.NativeCycles + s.DispatchCycles
	if cycles != sum {
		t.Fatalf("cycle categories sum to %d, want %d", sum, cycles)
	}
}

func TestOverlappingRegionsBothCorrect(t *testing.T) {
	// A branch into the middle of an already-translated region creates a
	// second region head whose translation overlaps the first; both must
	// execute with identical architectural results.
	src := `
		movi r1, 0
		movi r2, 0
	outer:
		addi r2, r2, 3     ; head A covers from here
	mid:
		addi r2, r2, 1     ; head B starts here when entered via the jnz
		addi r1, r1, 1
		cmpi r1, 50
		jz   done
		movi r3, 1
		cmpi r3, 1
		jz   mid           ; enters mid-region, creating head B
		jmp  outer
	done:
		hlt
	`
	runBoth(t, src, 0, 2)
}

func TestRegionHeadAfterFallthrough(t *testing.T) {
	// A region that ends at MaxRegion mid-stream falls through to a new
	// head; chained dispatch must continue correctly.
	src := "movi r1, 0\nmovi r9, 0\nloop:\n"
	for i := 0; i < 80; i++ { // exceeds MaxRegion=64 → split regions
		src += "addi r1, r1, 1\n"
	}
	src += "addi r9, r9, 1\ncmpi r9, 30\njl loop\nhlt\n"
	st, m := runBoth(t, src, 0, 1)
	if st.R[1] != 80*30 {
		t.Fatalf("r1 = %d, want 2400", st.R[1])
	}
	if m.Stats().Translations < 2 {
		t.Fatalf("expected the loop to split into ≥2 regions, got %d", m.Stats().Translations)
	}
}

func TestInterpreterOnlyNeverTranslatesColdProgram(t *testing.T) {
	// Straight-line code executed once stays interpreted under any sane
	// threshold.
	src := "movi r1, 5\naddi r1, r1, 2\nhlt"
	_, m := runBoth(t, src, 0, 2)
	if m.Stats().Translations != 0 {
		t.Fatal("single-shot code was translated")
	}
}
