// Package vliw models the Transmeta Crusoe's native very-long-instruction-
// word engine as the paper's §2.1 describes it: two integer units (7-stage
// pipelines), one floating-point unit (10-stage pipeline), one load/store
// unit, and one branch unit. Native RISC-like operations ("atoms") are
// packed into 64- or 128-bit "molecules" of up to four atoms that issue
// together, strictly in order; the molecule format routes atoms to
// functional units, so there is no out-of-order hardware at all.
//
// The machine here both executes atoms (against architectural isa.State,
// so translations can be checked for semantic equivalence against the
// reference interpreter) and accounts cycles with a scoreboard: a molecule
// issues when its source registers are ready and its units free; divides
// and square roots block the FP unit.
package vliw

import (
	"fmt"

	"repro/internal/isa"
)

// Unit identifies a functional unit slot in a molecule.
type Unit uint8

const (
	UnitALU Unit = iota // two available per molecule
	UnitFPU             // one
	UnitLSU             // one
	UnitBRU             // one
	numUnits
)

func (u Unit) String() string {
	switch u {
	case UnitALU:
		return "ALU"
	case UnitFPU:
		return "FPU"
	case UnitLSU:
		return "LSU"
	case UnitBRU:
		return "BRU"
	}
	return "?"
}

// AtomOp enumerates native operations.
type AtomOp uint8

const (
	ANop AtomOp = iota

	// Integer (ALU).
	AMovI
	AMov
	AAdd
	AAddI
	ASub
	ASubI
	AMul
	AAnd
	AOr
	AXor
	AShl // shift amount in Imm
	AShr
	ACmp // sets flags
	ACmpI

	// Memory (LSU). Address = R[Src1] + Imm.
	ALd
	ASt // stores R[Src2]
	AFLd
	AFSt // stores F[Src2]

	// Floating point (FPU).
	AFMovI
	AFMov
	AFAdd
	AFSub
	AFMul
	AFDiv
	AFSqrt
	AFNeg
	AFAbs
	ACvtIF // F[Dst] ← float(R[Src1])
	ACvtFI // R[Dst] ← int(F[Src1])
	AFCmp  // sets flags

	// Branch (BRU). Branches exit the translation to an x86 PC (Imm) when
	// the condition holds; an unconditional ABr always exits. Execution of
	// the translation otherwise falls through to the next molecule.
	ABr
	ABrZ
	ABrNZ
	ABrL
	ABrLE
	ABrG
	ABrGE

	numAtomOps
)

var atomNames = [numAtomOps]string{
	ANop: "nop", AMovI: "movi", AMov: "mov", AAdd: "add", AAddI: "addi",
	ASub: "sub", ASubI: "subi", AMul: "mul", AAnd: "and", AOr: "or",
	AXor: "xor", AShl: "shl", AShr: "shr", ACmp: "cmp", ACmpI: "cmpi",
	ALd: "ld", ASt: "st", AFLd: "fld", AFSt: "fst",
	AFMovI: "fmovi", AFMov: "fmov", AFAdd: "fadd", AFSub: "fsub",
	AFMul: "fmul", AFDiv: "fdiv", AFSqrt: "fsqrt", AFNeg: "fneg",
	AFAbs: "fabs", ACvtIF: "cvtif", ACvtFI: "cvtfi", AFCmp: "fcmp",
	ABr: "br", ABrZ: "brz", ABrNZ: "brnz", ABrL: "brl", ABrLE: "brle",
	ABrG: "brg", ABrGE: "brge",
}

func (op AtomOp) String() string {
	if int(op) < len(atomNames) && atomNames[op] != "" {
		return atomNames[op]
	}
	return fmt.Sprintf("atom(%d)", uint8(op))
}

// UnitOf maps an atom to the functional unit that executes it.
func UnitOf(op AtomOp) Unit {
	switch {
	case op >= AMovI && op <= ACmpI, op == ANop:
		return UnitALU
	case op >= ALd && op <= AFSt:
		return UnitLSU
	case op >= AFMovI && op <= AFCmp:
		return UnitFPU
	case op >= ABr && op <= ABrGE:
		return UnitBRU
	}
	panic(fmt.Sprintf("vliw: unit of unknown atom %d", op))
}

// IsBranch reports whether the atom can exit the translation.
func IsBranch(op AtomOp) bool { return op >= ABr && op <= ABrGE }

// Register-file sizes. The Crusoe's native machine exposes more registers
// than x86 so the translator can rename; registers 0..isa.NumRegs-1 shadow
// the architectural files and the remainder are translation temporaries.
const (
	NumIntRegs = 64
	NumFPRegs  = 32
)

// Atom is one native operation. Interpretation of fields mirrors isa.Instr:
// Dst/Src1/Src2 index the int or FP native file depending on the op; Imm is
// the immediate, memory displacement, or branch-exit x86 PC; F holds FP
// immediates.
type Atom struct {
	Op   AtomOp
	Dst  uint8
	Src1 uint8
	Src2 uint8
	Imm  int64
	F    float64
}

// Molecule is a bundle of up to four atoms that issue together. Wide
// reports the 128-bit format (up to 4 atoms); the 64-bit format packs at
// most 2. The paper: "Each molecule can be 64 bits or 128 bits long and
// can contain up to four RISC-like instructions called atoms, which are
// executed in parallel."
type Molecule struct {
	Atoms []Atom
	Wide  bool
}

// Slots returns the maximum atom count for the molecule format.
func (m *Molecule) Slots() int {
	if m.Wide {
		return 4
	}
	return 2
}

// Validate checks packing rules: at most 2 ALU / 1 FPU / 1 LSU / 1 BRU
// atoms, a branch only in the last slot, register indices in range, and no
// two atoms writing the same destination register (parallel-write
// conflict).
func (m *Molecule) Validate() error {
	if len(m.Atoms) == 0 {
		return fmt.Errorf("vliw: empty molecule")
	}
	if len(m.Atoms) > m.Slots() {
		return fmt.Errorf("vliw: %d atoms exceed %d slots", len(m.Atoms), m.Slots())
	}
	var used [numUnits]int
	intWrites := map[uint8]bool{}
	fpWrites := map[uint8]bool{}
	for i, a := range m.Atoms {
		if a.Op >= numAtomOps {
			return fmt.Errorf("vliw: atom %d: bad op %d", i, a.Op)
		}
		u := UnitOf(a.Op)
		used[u]++
		if IsBranch(a.Op) && i != len(m.Atoms)-1 {
			return fmt.Errorf("vliw: branch atom not in last slot")
		}
		wi, wf, ok := atomWrites(a)
		if ok {
			if wf {
				if fpWrites[wi] {
					return fmt.Errorf("vliw: two atoms write f%d", wi)
				}
				fpWrites[wi] = true
			} else {
				if intWrites[wi] {
					return fmt.Errorf("vliw: two atoms write r%d", wi)
				}
				intWrites[wi] = true
			}
		}
		if err := checkAtomRegs(a); err != nil {
			return fmt.Errorf("vliw: atom %d (%s): %v", i, a.Op, err)
		}
	}
	if used[UnitALU] > 2 {
		return fmt.Errorf("vliw: %d ALU atoms (max 2)", used[UnitALU])
	}
	for _, u := range []Unit{UnitFPU, UnitLSU, UnitBRU} {
		if used[u] > 1 {
			return fmt.Errorf("vliw: %d %s atoms (max 1)", used[u], u)
		}
	}
	return nil
}

// atomWrites returns the register the atom writes (reg, isFP, writes-any).
func atomWrites(a Atom) (uint8, bool, bool) {
	switch a.Op {
	case ANop, ACmp, ACmpI, AFCmp, ASt, AFSt,
		ABr, ABrZ, ABrNZ, ABrL, ABrLE, ABrG, ABrGE:
		return 0, false, false
	case AFMovI, AFMov, AFAdd, AFSub, AFMul, AFDiv, AFSqrt, AFNeg, AFAbs, ACvtIF, AFLd:
		return a.Dst, true, true
	default:
		return a.Dst, false, true
	}
}

func checkAtomRegs(a Atom) error {
	checkInt := func(r uint8) error {
		if r >= NumIntRegs {
			return fmt.Errorf("int register %d out of range", r)
		}
		return nil
	}
	checkFP := func(r uint8) error {
		if r >= NumFPRegs {
			return fmt.Errorf("fp register %d out of range", r)
		}
		return nil
	}
	switch a.Op {
	case ANop, ABr, ABrZ, ABrNZ, ABrL, ABrLE, ABrG, ABrGE:
		return nil
	case AMovI:
		return checkInt(a.Dst)
	case AMov:
		return firstErr(checkInt(a.Dst), checkInt(a.Src1))
	case AAdd, ASub, AMul, AAnd, AOr, AXor:
		return firstErr(checkInt(a.Dst), checkInt(a.Src1), checkInt(a.Src2))
	case AAddI, ASubI, AShl, AShr:
		return firstErr(checkInt(a.Dst), checkInt(a.Src1))
	case ACmp:
		return firstErr(checkInt(a.Src1), checkInt(a.Src2))
	case ACmpI:
		return checkInt(a.Src1)
	case ALd:
		return firstErr(checkInt(a.Dst), checkInt(a.Src1))
	case ASt:
		return firstErr(checkInt(a.Src1), checkInt(a.Src2))
	case AFLd:
		return firstErr(checkFP(a.Dst), checkInt(a.Src1))
	case AFSt:
		return firstErr(checkInt(a.Src1), checkFP(a.Src2))
	case AFMovI:
		return checkFP(a.Dst)
	case AFMov, AFSqrt, AFNeg, AFAbs:
		return firstErr(checkFP(a.Dst), checkFP(a.Src1))
	case AFAdd, AFSub, AFMul, AFDiv:
		return firstErr(checkFP(a.Dst), checkFP(a.Src1), checkFP(a.Src2))
	case ACvtIF:
		return firstErr(checkFP(a.Dst), checkInt(a.Src1))
	case ACvtFI:
		return firstErr(checkInt(a.Dst), checkFP(a.Src1))
	case AFCmp:
		return firstErr(checkFP(a.Src1), checkFP(a.Src2))
	}
	return fmt.Errorf("unknown atom op %d", a.Op)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Translation is a unit of translated code: the molecules for one x86
// region plus bookkeeping the translation cache needs.
type Translation struct {
	EntryPC   int // x86 PC this translation begins at
	Molecules []Molecule
	// SrcInstrs is the number of x86 instructions covered (for accounting
	// translation cost and speedup).
	SrcInstrs int
	// FallPC is the x86 PC execution continues at when the last molecule
	// falls through (no branch taken).
	FallPC int
}

// Validate validates every molecule.
func (t *Translation) Validate() error {
	if len(t.Molecules) == 0 {
		return fmt.Errorf("vliw: empty translation at pc %d", t.EntryPC)
	}
	for i := range t.Molecules {
		if err := t.Molecules[i].Validate(); err != nil {
			return fmt.Errorf("molecule %d: %w", i, err)
		}
	}
	return nil
}

// Atoms returns the total atom count (for packing-density stats).
func (t *Translation) Atoms() int {
	n := 0
	for i := range t.Molecules {
		n += len(t.Molecules[i].Atoms)
	}
	return n
}

// ClassOfAtom buckets atoms into the shared isa timing classes, used for
// statistics and for calibrating the coarse CPU model from VLIW runs.
func ClassOfAtom(op AtomOp) isa.Class {
	switch op {
	case ANop:
		return isa.ClassNop
	case AMovI, AMov, AAdd, AAddI, ASub, ASubI, AAnd, AOr, AXor, AShl, AShr, ACmp, ACmpI:
		return isa.ClassIntALU
	case AMul:
		return isa.ClassIntMul
	case ALd, AFLd:
		return isa.ClassLoad
	case ASt, AFSt:
		return isa.ClassStore
	case AFMovI, AFMov, AFAdd, AFSub, AFNeg, AFAbs, ACvtIF, ACvtFI, AFCmp:
		return isa.ClassFPAdd
	case AFMul:
		return isa.ClassFPMul
	case AFDiv:
		return isa.ClassFPDiv
	case AFSqrt:
		return isa.ClassFPSqrt
	case ABr, ABrZ, ABrNZ, ABrL, ABrLE, ABrG, ABrGE:
		return isa.ClassBranch
	}
	panic(fmt.Sprintf("vliw: class of unknown atom %d", op))
}
