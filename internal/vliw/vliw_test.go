package vliw

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
)

func mol(atoms ...isa.Instr) Molecule { return Molecule{Atoms: atoms, Wide: true} }

// mustTime prepares tr for m.Execute, failing the test if Time rejects it.
func mustTime(t testing.TB, m *Machine, tr *Translation) {
	t.Helper()
	if err := m.Time(tr); err != nil {
		t.Fatal(err)
	}
}

// TestUnitOfCoversAllAtoms: every opcode a molecule may carry (all but
// hlt) routes to a unit that has a slot in some molecule.
func TestUnitOfCoversAllAtoms(t *testing.T) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if op == isa.Hlt {
			continue
		}
		u := UnitOf(op)
		if u >= NumUnits || u.Limit() == 0 {
			t.Fatalf("UnitOf(%s) = %d", op, u)
		}
	}
}

func TestMoleculeValidatePackingRules(t *testing.T) {
	ok := []Molecule{
		mol(isa.Instr{Op: isa.Add, Rd: 1, Ra: 2, Rb: 3}),
		mol(
			isa.Instr{Op: isa.Add, Rd: 1, Ra: 2, Rb: 3},
			isa.Instr{Op: isa.Sub, Rd: 4, Ra: 5, Rb: 6},
			isa.Instr{Op: isa.FMul, Rd: 1, Ra: 2, Rb: 3},
			isa.Instr{Op: isa.Ld, Rd: 7, Ra: 8},
		),
		mol(
			isa.Instr{Op: isa.Add, Rd: 1, Ra: 2, Rb: 3},
			isa.Instr{Op: isa.Jz, Imm: 5},
		),
		{Atoms: []isa.Instr{{Op: isa.Add, Rd: 1}, {Op: isa.FAdd, Rd: 1}}, Wide: false},
		// The highest native register of each file, in every operand
		// position that names that file.
		mol(isa.Instr{Op: isa.Add, Rd: 63, Ra: 63, Rb: 63}, isa.Instr{Op: isa.FAdd, Rd: 31, Ra: 31, Rb: 31}),
		mol(isa.Instr{Op: isa.CvtIF, Rd: 31, Ra: 63}, isa.Instr{Op: isa.FSt, Ra: 63, Rb: 31}),
		mol(isa.Instr{Op: isa.CvtFI, Rd: 63, Ra: 31}, isa.Instr{Op: isa.FLd, Rd: 31, Ra: 63}),
	}
	for i, m := range ok {
		if err := m.Validate(); err != nil {
			t.Errorf("valid molecule %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		name string
		m    Molecule
	}{
		{"empty", Molecule{Wide: true}},
		{"five atoms", mol(
			isa.Instr{Op: isa.Add, Rd: 1}, isa.Instr{Op: isa.Sub, Rd: 2},
			isa.Instr{Op: isa.FAdd, Rd: 3}, isa.Instr{Op: isa.Ld, Rd: 4}, isa.Instr{Op: isa.Nop})},
		{"three ALU", mol(isa.Instr{Op: isa.Add, Rd: 1}, isa.Instr{Op: isa.Sub, Rd: 2}, isa.Instr{Op: isa.Xor, Rd: 3})},
		{"two FPU", mol(isa.Instr{Op: isa.FAdd, Rd: 1}, isa.Instr{Op: isa.FMul, Rd: 2})},
		{"two LSU", mol(isa.Instr{Op: isa.Ld, Rd: 1}, isa.Instr{Op: isa.Ld, Rd: 2})},
		{"branch not last", mol(isa.Instr{Op: isa.Jmp, Imm: 0}, isa.Instr{Op: isa.Add, Rd: 1})},
		{"dup int write", mol(isa.Instr{Op: isa.Add, Rd: 1}, isa.Instr{Op: isa.Sub, Rd: 1})},
		{"dup fp write", mol(isa.Instr{Op: isa.FAdd, Rd: 1}, isa.Instr{Op: isa.FLd, Rd: 1})},
		{"narrow overflow", Molecule{Atoms: []isa.Instr{{Op: isa.Add, Rd: 1}, {Op: isa.Sub, Rd: 2}, {Op: isa.Nop}}, Wide: false}},
		{"hlt atom", mol(isa.Instr{Op: isa.Hlt})},
		{"bad op", mol(isa.Instr{Op: isa.NumOps})},
		{"int rd", mol(isa.Instr{Op: isa.Add, Rd: 64})},
		{"int ra", mol(isa.Instr{Op: isa.Add, Ra: 64})},
		{"int rb", mol(isa.Instr{Op: isa.Add, Rb: 64})},
		{"fp rd", mol(isa.Instr{Op: isa.FAdd, Rd: 32})},
		{"fp ra", mol(isa.Instr{Op: isa.FAdd, Ra: 32})},
		{"fp rb", mol(isa.Instr{Op: isa.FAdd, Rb: 32})},
		{"load base", mol(isa.Instr{Op: isa.FLd, Ra: 64})},
		{"fld fp rd", mol(isa.Instr{Op: isa.FLd, Rd: 32})},
		{"st int rb", mol(isa.Instr{Op: isa.St, Rb: 64})},
		{"fst fp rb", mol(isa.Instr{Op: isa.FSt, Rb: 32})},
		{"cvtif int ra", mol(isa.Instr{Op: isa.CvtIF, Ra: 64})},
		{"cvtfi fp ra", mol(isa.Instr{Op: isa.CvtFI, Ra: 32})},
		{"cvtfi int rd", mol(isa.Instr{Op: isa.CvtFI, Rd: 64})},
	}
	for _, c := range bad {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: invalid molecule accepted", c.name)
		}
	}
}

func TestExecuteStraightLine(t *testing.T) {
	arch := isa.NewState(8)
	st := NewState(arch)
	tr := &Translation{
		EntryPC: 0,
		FallPC:  10,
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.MovI, Rd: 1, Imm: 6}, isa.Instr{Op: isa.MovI, Rd: 2, Imm: 7}),
			mol(isa.Instr{Op: isa.Mul, Rd: 3, Ra: 1, Rb: 2}),
		},
		SrcInstrs: 3,
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if arch.R[3] != 42 {
		t.Fatalf("r3 = %d, want 42", arch.R[3])
	}
	if res.ExitPC != 10 {
		t.Fatalf("ExitPC = %d, want fallthrough 10", res.ExitPC)
	}
	if res.Taken {
		t.Fatal("fallthrough reported as taken")
	}
	if res.Molecules != 2 || res.Atoms != 3 {
		t.Fatalf("molecules=%d atoms=%d, want 2,3", res.Molecules, res.Atoms)
	}
}

func TestExecuteParallelReadSemantics(t *testing.T) {
	// Swap r1,r2 in one molecule: both atoms must read pre-molecule values.
	arch := isa.NewState(0)
	arch.R[1], arch.R[2] = 11, 22
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.Mov, Rd: 1, Ra: 2}, isa.Instr{Op: isa.Mov, Rd: 2, Ra: 1}),
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	if _, err := ExecuteResult(m, tr, st); err != nil {
		t.Fatal(err)
	}
	if arch.R[1] != 22 || arch.R[2] != 11 {
		t.Fatalf("swap gave r1=%d r2=%d, want 22,11", arch.R[1], arch.R[2])
	}
}

func TestExecuteBranchTaken(t *testing.T) {
	arch := isa.NewState(0)
	arch.R[1] = 5
	st := NewState(arch)
	tr := &Translation{
		FallPC: 100,
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.CmpI, Ra: 1, Imm: 5}),
			mol(isa.Instr{Op: isa.Jz, Imm: 42}),
			mol(isa.Instr{Op: isa.MovI, Rd: 9, Imm: 1}), // must not execute
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Taken || res.ExitPC != 42 {
		t.Fatalf("taken=%v exit=%d, want true,42", res.Taken, res.ExitPC)
	}
	if arch.R[9] != 0 {
		t.Fatal("molecule after taken branch executed")
	}
}

func TestExecuteBranchNotTakenFallsThrough(t *testing.T) {
	arch := isa.NewState(0)
	arch.R[1] = 4
	st := NewState(arch)
	tr := &Translation{
		FallPC: 100,
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.CmpI, Ra: 1, Imm: 5}),
			mol(isa.Instr{Op: isa.Jz, Imm: 42}),
			mol(isa.Instr{Op: isa.MovI, Rd: 9, Imm: 1}),
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Taken || res.ExitPC != 100 {
		t.Fatalf("taken=%v exit=%d, want false,100", res.Taken, res.ExitPC)
	}
	if arch.R[9] != 1 {
		t.Fatal("fallthrough molecule skipped")
	}
}

func TestExecuteHalt(t *testing.T) {
	arch := isa.NewState(0)
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{mol(isa.Instr{Op: isa.Jmp, Imm: HaltCode(0)})},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || !arch.Halted {
		t.Fatal("halt exit did not halt")
	}
}

func TestExecuteTempRegistersIsolated(t *testing.T) {
	arch := isa.NewState(0)
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.MovI, Rd: 40, Imm: 99}), // temp reg
			mol(isa.Instr{Op: isa.Mov, Rd: 2, Ra: 40}),
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	if _, err := ExecuteResult(m, tr, st); err != nil {
		t.Fatal(err)
	}
	if arch.R[2] != 99 {
		t.Fatalf("value did not flow through temp reg: r2=%d", arch.R[2])
	}
	// Architectural registers beyond r2 untouched.
	for i, v := range arch.R {
		if i != 2 && v != 0 {
			t.Fatalf("architectural r%d polluted: %d", i, v)
		}
	}
}

func TestCyclesIndependentMoleculesPipeline(t *testing.T) {
	// N independent single-atom molecules issue 1/cycle.
	arch := isa.NewState(0)
	st := NewState(arch)
	var mols []Molecule
	for i := 0; i < 10; i++ {
		mols = append(mols, mol(isa.Instr{Op: isa.MovI, Rd: uint8(i), Imm: int64(i)}))
	}
	tr := &Translation{Molecules: mols}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 10 {
		t.Fatalf("10 independent molecules took %d cycles, want 10", res.Cycles)
	}
}

func TestCyclesDependencyStall(t *testing.T) {
	// fmul f1←f0; fadd f2←f1: second must wait FPLatency after first.
	arch := isa.NewState(0)
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.FMul, Rd: 1, Ra: 0, Rb: 0}),
			mol(isa.Instr{Op: isa.FAdd, Rd: 2, Ra: 1, Rb: 1}),
		},
	}
	tm := TM5600Timing()
	m := NewMachine(tm)
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	// First issues at 0; f1 ready at FPLatency; second issues then; +1.
	want := uint64(tm.FPLatency + 1)
	if res.Cycles != want {
		t.Fatalf("dependent FP chain took %d cycles, want %d", res.Cycles, want)
	}
}

func TestCyclesFDivBlocksFPU(t *testing.T) {
	// fdiv then an independent fadd: the fadd stalls on the busy FPU.
	arch := isa.NewState(0)
	arch.F[0] = 1
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.FDiv, Rd: 1, Ra: 0, Rb: 0}),
			mol(isa.Instr{Op: isa.FAdd, Rd: 2, Ra: 3, Rb: 3}), // independent regs
		},
	}
	tm := TM5600Timing()
	m := NewMachine(tm)
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(tm.FDivLatency + 1)
	if res.Cycles != want {
		t.Fatalf("fdiv+independent fadd took %d cycles, want %d (FPU blocked)", res.Cycles, want)
	}
}

func TestCyclesIndependentIntNotBlockedByFDiv(t *testing.T) {
	arch := isa.NewState(0)
	arch.F[0] = 1
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.FDiv, Rd: 1, Ra: 0, Rb: 0}),
			mol(isa.Instr{Op: isa.Add, Rd: 2, Ra: 3, Rb: 3}),
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 2 {
		t.Fatalf("int op after fdiv took %d cycles, want 2 (no FPU dependence)", res.Cycles)
	}
}

func TestCyclesTakenBranchPenalty(t *testing.T) {
	arch := isa.NewState(0)
	st := NewState(arch)
	tm := TM5600Timing()
	m := NewMachine(tm)

	taken := &Translation{Molecules: []Molecule{mol(isa.Instr{Op: isa.Jmp, Imm: 7})}}
	mustTime(t, m, taken)
	res, err := ExecuteResult(m, taken, st)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1 + tm.BranchPenalty)
	if res.Cycles != want {
		t.Fatalf("taken branch = %d cycles, want %d", res.Cycles, want)
	}
}

func TestExecuteMemoryFault(t *testing.T) {
	arch := isa.NewState(4)
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.MovI, Rd: 1, Imm: 100}),
			mol(isa.Instr{Op: isa.Ld, Rd: 2, Ra: 1}),
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err == nil {
		t.Fatal("out-of-range load did not error")
	}
	// The result counts the molecules before the faulting one and
	// reports no cycles, no exit and no halt.
	want := ExecResult{Atoms: 1, Molecules: 1}
	want.ByClass[isa.ClassIntALU] = 1
	if res != want {
		t.Fatalf("faulting Execute returned %+v, want %+v", res, want)
	}
	if arch.R[1] != 100 {
		t.Fatalf("r1 = %d, want 100 (molecule before the fault committed)", arch.R[1])
	}
}

func TestLoadUseStall(t *testing.T) {
	arch := isa.NewState(4)
	arch.StoreI(0, 5)
	st := NewState(arch)
	tr := &Translation{
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.Ld, Rd: 1, Ra: 0}),
			mol(isa.Instr{Op: isa.AddI, Rd: 2, Ra: 1, Imm: 1}),
		},
	}
	tm := TM5600Timing()
	m := NewMachine(tm)
	mustTime(t, m, tr)
	res, err := ExecuteResult(m, tr, st)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(tm.LoadLatency + 1)
	if res.Cycles != want {
		t.Fatalf("load-use chain = %d cycles, want %d", res.Cycles, want)
	}
	if arch.R[2] != 6 {
		t.Fatalf("r2 = %d, want 6", arch.R[2])
	}
}

func TestTranslationAtomsCount(t *testing.T) {
	tr := &Translation{Molecules: []Molecule{
		mol(isa.Instr{Op: isa.Add, Rd: 1}, isa.Instr{Op: isa.Sub, Rd: 2}),
		mol(isa.Instr{Op: isa.Nop}),
	}}
	if tr.Atoms() != 3 {
		t.Fatalf("Atoms = %d, want 3", tr.Atoms())
	}
}

// TestExecuteRejectsStaleTiming: Execute runs a translation only on a
// machine whose Timing is the one Time ran under, and touches no state
// when it refuses.
func TestExecuteRejectsStaleTiming(t *testing.T) {
	arch := isa.NewState(0)
	st := NewState(arch)
	tr := &Translation{Molecules: []Molecule{mol(isa.Instr{Op: isa.MovI, Rd: 1, Imm: 7})}}
	m := NewMachine(TM5600Timing())
	if _, err := ExecuteResult(m, tr, st); !errors.Is(err, ErrTiming) {
		t.Fatalf("untimed translation: err = %v, want ErrTiming", err)
	}
	mustTime(t, m, tr)
	slow := TM5600Timing()
	slow.LoadLatency++
	if _, err := ExecuteResult(NewMachine(slow), tr, st); !errors.Is(err, ErrTiming) {
		t.Fatalf("other machine's timing: err = %v, want ErrTiming", err)
	}
	m.T.BranchPenalty++
	if _, err := ExecuteResult(m, tr, st); !errors.Is(err, ErrTiming) {
		t.Fatalf("timing changed after Time: err = %v, want ErrTiming", err)
	}
	if arch.R[1] != 0 {
		t.Fatal("a refused Execute ran atoms")
	}
	mustTime(t, m, tr)
	if _, err := ExecuteResult(m, tr, st); err != nil || arch.R[1] != 7 {
		t.Fatalf("retimed translation: err = %v, r1 = %d", err, arch.R[1])
	}
}

// TestExecuteConcurrent runs one timed translation from two goroutines
// on separate states (run under -race in CI): Execute only reads the
// translation, so both see the serial result every time.
func TestExecuteConcurrent(t *testing.T) {
	tr := &Translation{
		FallPC: 9,
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.Ld, Rd: 1, Ra: 0}, isa.Instr{Op: isa.FMovI, Rd: 1, F: 2.0}),
			mol(isa.Instr{Op: isa.AddI, Rd: 1, Ra: 1, Imm: 1}, isa.Instr{Op: isa.FDiv, Rd: 2, Ra: 1, Rb: 1}),
			mol(isa.Instr{Op: isa.St, Ra: 0, Rb: 1}, isa.Instr{Op: isa.CmpI, Ra: 1, Imm: 1000}),
			mol(isa.Instr{Op: isa.Jl, Imm: 0}),
		},
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	want, err := ExecuteResult(m, tr, NewState(isa.NewState(1)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewState(isa.NewState(1))
			for i := 0; i < 500; i++ {
				res, err := ExecuteResult(m, tr, st)
				if err != nil || res != want {
					t.Errorf("execution %d: %+v, %v; want %+v", i, res, err, want)
					return
				}
			}
			if st.Arch.R[1] != 500 {
				t.Errorf("r1 = %d after 500 executions, want 500", st.Arch.R[1])
			}
		}()
	}
	wg.Wait()
}

// TestTimingSameSeesEveryField: Execute's timing guard compares Timing
// field by field, so a change to any one field must make it differ.
func TestTimingSameSeesEveryField(t *testing.T) {
	base := TM5600Timing()
	if !base.same(&base) {
		t.Fatal("a Timing differs from itself")
	}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		u := base
		f := reflect.ValueOf(&u).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		if base.same(&u) {
			t.Fatalf("a change to %s went unseen", reflect.TypeOf(base).Field(i).Name)
		}
	}
}
