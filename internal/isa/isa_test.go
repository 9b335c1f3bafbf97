package isa

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassOfCoversAllOps(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		// Must not panic, must be in range.
		c := ClassOf(op)
		if c >= NumClasses {
			t.Fatalf("ClassOf(%s) = %d out of range", op, c)
		}
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < NumOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Fatalf("op %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ops %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestIsFlopMatchesPaperConvention(t *testing.T) {
	flops := []Op{FAdd, FSub, FMul, FDiv, FSqrt, FNeg, FAbs}
	for _, op := range flops {
		if !IsFlop(op) {
			t.Errorf("IsFlop(%s) = false", op)
		}
	}
	notFlops := []Op{FMov, FMovI, FLd, FSt, CvtIF, CvtFI, FCmp, Add, Ld}
	for _, op := range notFlops {
		if IsFlop(op) {
			t.Errorf("IsFlop(%s) = true", op)
		}
	}
}

func TestAssembleBasicProgram(t *testing.T) {
	src := `
		; sum integers 1..10 into r1
		movi r1, 0
		movi r2, 1
	loop:
		add  r1, r1, r2
		addi r2, r2, 1
		cmpi r2, 10
		jle  loop
		hlt
	`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(0)
	if err := Run(p, s, nil, 0); err != nil {
		t.Fatal(err)
	}
	if s.R[1] != 55 {
		t.Fatalf("sum = %d, want 55", s.R[1])
	}
}

func TestAssembleFPProgram(t *testing.T) {
	src := `
		fmovi f0, 2.0
		fsqrt f1, f0
		fmul  f2, f1, f1
		hlt
	`
	p := MustAssemble(src)
	s := NewState(0)
	if err := Run(p, s, nil, 0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.F[1]-math.Sqrt2) > 1e-15 {
		t.Fatalf("f1 = %v, want sqrt(2)", s.F[1])
	}
	if math.Abs(s.F[2]-2) > 1e-15 {
		t.Fatalf("f2 = %v, want 2", s.F[2])
	}
}

func TestAssembleMemoryOps(t *testing.T) {
	src := `
		movi r1, 4
		movi r2, 99
		st   [r1+1], r2
		ld   r3, [r1+1]
		fmovi f0, 3.25
		fst  [r1-2], f0
		fld  f1, [r1-2]
		hlt
	`
	p := MustAssemble(src)
	s := NewState(16)
	if err := Run(p, s, nil, 0); err != nil {
		t.Fatal(err)
	}
	if s.R[3] != 99 {
		t.Fatalf("r3 = %d, want 99", s.R[3])
	}
	if s.F[1] != 3.25 {
		t.Fatalf("f1 = %v, want 3.25", s.F[1])
	}
	if s.LoadI(5) != 99 {
		t.Fatalf("mem[5] = %d, want 99", s.LoadI(5))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown mnemonic", "frobnicate r1, r2"},
		{"bad register", "movi r99, 1"},
		{"bad operand count", "add r1, r2"},
		{"undefined label", "jmp nowhere"},
		{"duplicate label", "x:\nnop\nx:\nhlt"},
		{"bad immediate", "movi r1, banana"},
		{"bad fp immediate", "fmovi f0, banana"},
		{"bad memory operand", "ld r1, r2"},
		{"fp reg where int expected", "movi f1, 3"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: Assemble(%q) succeeded, want error", c.name, c.src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		movi r1, 10
		fmovi f0, 0.5
	top:
		addi r1, r1, -1
		fadd f0, f0, f0
		fsub f1, f0, f0
		fmul f2, f0, f0
		fdiv f3, f2, f0
		fsqrt f4, f2
		fneg f5, f4
		fabs f6, f5
		cvtif f7, r1
		cvtfi r2, f7
		fcmp f0, f1
		ld r3, [r1+2]
		st [r1+2], r3
		fld f8, [r1]
		fst [r1], f8
		mov r4, r3
		add r5, r4, r3
		sub r6, r5, r4
		mul r7, r6, r5
		and r8, r7, r6
		or r9, r8, r7
		xor r10, r9, r8
		shl r11, r10, 3
		shr r12, r11, 3
		cmp r1, r2
		cmpi r1, 5
		jg top
		jz top
		jnz top
		jl top
		jle top
		jge top
		jmp end
	end:
		nop
		hlt
	`
	p1 := MustAssemble(src)
	// Disassemble and re-assemble; programs must be identical.
	p2, err := Assemble(disassembleProgram(p1))
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, disassembleProgram(p1))
	}
	if len(p1) != len(p2) {
		t.Fatalf("length mismatch %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("instr %d: %+v != %+v", i, p1[i], p2[i])
		}
	}
}

func TestDisassembleRoundTripProperty(t *testing.T) {
	// Property: any valid random instruction survives disassemble→assemble.
	f := func(opRaw, rd, ra, rb uint8, imm int64, fv float64) bool {
		op := Op(opRaw % uint8(NumOps))
		in := Instr{Op: op, Rd: rd % NumRegs, Ra: ra % NumRegs, Rb: rb % NumRegs}
		// Populate only fields the op uses, as the assembler would.
		switch op {
		case MovI, CmpI:
			in.Rb = 0
			in.Imm = imm
		case AddI, SubI:
			in.Rb = 0
			in.Imm = imm
		case Shl, Shr:
			in.Rb = 0
			in.Imm = imm & 63
		case Ld, St, FLd, FSt:
			in.Imm = imm % 1000
		case FMovI:
			if math.IsNaN(fv) || math.IsInf(fv, 0) {
				fv = 1.5
			}
			in.F = fv
		case Jmp, Jz, Jnz, Jl, Jle, Jg, Jge:
			in.Imm = 0 // target must be in range for a 2-instr program
		}
		switch op {
		case Nop, Hlt:
			in.Rd, in.Ra, in.Rb = 0, 0, 0
		case Cmp:
			in.Rd = 0
		case CmpI:
			in.Rd, in.Rb = 0, 0
		case MovI:
			in.Ra = 0
		case Mov, FMov, FSqrt, FNeg, FAbs, CvtIF, CvtFI:
			in.Rb = 0
		case FMovI:
			in.Ra, in.Rb = 0, 0
		case FCmp:
			in.Rd = 0
		case Jmp, Jz, Jnz, Jl, Jle, Jg, Jge:
			in.Rd, in.Ra, in.Rb = 0, 0, 0
		case Ld, FLd:
			in.Rb = 0
		case St, FSt:
			in.Rd = 0
		}
		prog := Program{in, {Op: Hlt}}
		src := disassembleProgram(prog)
		p2, err := Assemble(src)
		if err != nil {
			t.Logf("op=%s src=%q err=%v", op, src, err)
			return false
		}
		return len(p2) == 2 && p2[0] == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := Program{{Op: Jmp, Imm: 5}, {Op: Hlt}}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range branch target passed Validate")
	}
}

func TestValidateCatchesBadRegister(t *testing.T) {
	p := Program{{Op: Add, Rd: 20}, {Op: Hlt}}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range register passed Validate")
	}
}

func TestRunFuelLimit(t *testing.T) {
	p := MustAssemble("spin: jmp spin")
	s := NewState(0)
	err := Run(p, s, nil, 100)
	if err != ErrFuel {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
}

func TestRunPCOutOfRange(t *testing.T) {
	p := Program{{Op: Nop}} // falls off the end
	s := NewState(0)
	if err := Run(p, s, nil, 10); err == nil {
		t.Fatal("running off the end did not error")
	}
}

func TestMemoryBoundsChecked(t *testing.T) {
	for _, src := range []string{
		"movi r1, 100\nld r2, [r1]\nhlt",
		"movi r1, 100\nst [r1], r2\nhlt",
		"movi r1, 100\nfld f2, [r1]\nhlt",
		"movi r1, 100\nfst [r1], f2\nhlt",
		"movi r1, -1\nld r2, [r1]\nhlt",
	} {
		p := MustAssemble(src)
		s := NewState(8)
		if err := Run(p, s, nil, 10); err == nil {
			t.Errorf("out-of-range access in %q did not error", src)
		}
	}
}

func TestTraceCounts(t *testing.T) {
	src := `
		movi r1, 0
		movi r2, 3
		fmovi f0, 1.0
	loop:
		fadd f0, f0, f0
		fmul f1, f0, f0
		addi r1, r1, 1
		cmp  r1, r2
		jl   loop
		hlt
	`
	p := MustAssemble(src)
	s := NewState(0)
	var tr Trace
	if err := Run(p, s, &tr, 0); err != nil {
		t.Fatal(err)
	}
	// 3 iterations: 3 fadd + 3 fmul = 6 flops.
	if tr.Flops != 6 {
		t.Fatalf("Flops = %d, want 6", tr.Flops)
	}
	if tr.ByClass[ClassFPMul] != 3 {
		t.Fatalf("FPMul count = %d, want 3", tr.ByClass[ClassFPMul])
	}
	// Branch taken twice (back edges), not taken once.
	if tr.Taken != 2 {
		t.Fatalf("Taken = %d, want 2", tr.Taken)
	}
	if tr.ByClass[ClassBranch] != 3 {
		t.Fatalf("Branch count = %d, want 3", tr.ByClass[ClassBranch])
	}
	// movi f  + fadd counted under FPAdd class: fmovi(1) + fadd(3) = 4.
	if tr.ByClass[ClassFPAdd] != 4 {
		t.Fatalf("FPAdd class = %d, want 4", tr.ByClass[ClassFPAdd])
	}
}

func TestTraceAddScale(t *testing.T) {
	var a, b Trace
	a.Instrs, a.Flops = 10, 4
	a.ByClass[ClassLoad] = 2
	b.Instrs, b.Flops = 5, 1
	b.ByClass[ClassLoad] = 3
	a.Add(&b)
	if a.Instrs != 15 || a.Flops != 5 || a.ByClass[ClassLoad] != 5 {
		t.Fatalf("Add gave %+v", a)
	}
	a.Scale(2)
	if a.Instrs != 30 || a.Flops != 10 || a.ByClass[ClassLoad] != 10 {
		t.Fatalf("Scale gave %+v", a)
	}
}

func TestStateCloneAndEqual(t *testing.T) {
	s := NewState(4)
	s.R[3] = 7
	s.F[2] = math.NaN()
	s.StoreF(1, 2.5)
	s.FlagZ = true
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not Equal (NaN handling?)")
	}
	c.Mem[0] = 1
	if s.Equal(c) {
		t.Fatal("Equal ignored memory difference")
	}
	c = s.Clone()
	c.R[0] = 1
	if s.Equal(c) {
		t.Fatal("Equal ignored register difference")
	}
}

func TestBitReinterpretViaMemory(t *testing.T) {
	// The FSt/Ld pair reinterprets float bits as an integer — the idiom the
	// Karp reciprocal-sqrt kernel uses for exponent extraction.
	src := `
		fmovi f0, 1.0
		movi  r1, 0
		fst   [r1], f0
		ld    r2, [r1]
		hlt
	`
	p := MustAssemble(src)
	s := NewState(4)
	if err := Run(p, s, nil, 0); err != nil {
		t.Fatal(err)
	}
	if uint64(s.R[2]) != math.Float64bits(1.0) {
		t.Fatalf("r2 = %#x, want %#x", uint64(s.R[2]), math.Float64bits(1.0))
	}
}

func TestConditionalBranchSemantics(t *testing.T) {
	// For each comparison outcome, check every conditional branch.
	type tc struct {
		a, b  int64
		op    string
		taken bool
	}
	cases := []tc{
		{1, 2, "jl", true}, {2, 1, "jl", false}, {1, 1, "jl", false},
		{1, 2, "jle", true}, {1, 1, "jle", true}, {2, 1, "jle", false},
		{2, 1, "jg", true}, {1, 2, "jg", false}, {1, 1, "jg", false},
		{2, 1, "jge", true}, {1, 1, "jge", true}, {1, 2, "jge", false},
		{1, 1, "jz", true}, {1, 2, "jz", false},
		{1, 2, "jnz", true}, {1, 1, "jnz", false},
	}
	for _, c := range cases {
		src := `
			movi r1, ` + itoa(c.a) + `
			movi r2, ` + itoa(c.b) + `
			movi r3, 0
			cmp  r1, r2
			` + c.op + ` taken
			jmp end
		taken:
			movi r3, 1
		end:
			hlt
		`
		p := MustAssemble(src)
		s := NewState(0)
		if err := Run(p, s, nil, 0); err != nil {
			t.Fatal(err)
		}
		got := s.R[3] == 1
		if got != c.taken {
			t.Errorf("%s with a=%d b=%d: taken=%v, want %v", c.op, c.a, c.b, got, c.taken)
		}
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func TestIntegerOpSemantics(t *testing.T) {
	src := `
		movi r1, 12
		movi r2, 10
		add  r3, r1, r2   ; 22
		sub  r4, r1, r2   ; 2
		mul  r5, r1, r2   ; 120
		and  r6, r1, r2   ; 8
		or   r7, r1, r2   ; 14
		xor  r8, r1, r2   ; 6
		shl  r9, r1, 2    ; 48
		shr  r10, r1, 2   ; 3
		subi r11, r1, 5   ; 7
		hlt
	`
	p := MustAssemble(src)
	s := NewState(0)
	if err := Run(p, s, nil, 0); err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{3: 22, 4: 2, 5: 120, 6: 8, 7: 14, 8: 6, 9: 48, 10: 3, 11: 7}
	for reg, v := range want {
		if s.R[reg] != v {
			t.Errorf("r%d = %d, want %d", reg, s.R[reg], v)
		}
	}
}

func TestShrIsLogical(t *testing.T) {
	src := `
		movi r1, -8
		shr  r2, r1, 1
		hlt
	`
	p := MustAssemble(src)
	s := NewState(0)
	if err := Run(p, s, nil, 0); err != nil {
		t.Fatal(err)
	}
	want := int64(uint64(0xFFFFFFFFFFFFFFF8) >> 1)
	if s.R[2] != want {
		t.Fatalf("shr -8>>1 = %d, want %d (logical)", s.R[2], want)
	}
}

// disassembleProgram renders the whole program, one instruction per line,
// with instruction indices as comments.
func disassembleProgram(p Program) string {
	var b strings.Builder
	for i, in := range p {
		fmt.Fprintf(&b, "%s ; %d\n", Disassemble(in), i)
	}
	return b.String()
}
