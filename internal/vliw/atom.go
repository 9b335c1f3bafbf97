// Package vliw models the Transmeta Crusoe's native very-long-instruction-
// word engine as the paper's §2.1 describes it: two integer units (7-stage
// pipelines), one floating-point unit (10-stage pipeline), one load/store
// unit, and one branch unit. Native RISC-like operations ("atoms") are
// packed into 64- or 128-bit "molecules" of up to four atoms that issue
// together, strictly in order; the molecule format routes atoms to
// functional units, so there is no out-of-order hardware at all.
//
// The mini ISA is already RISC-like, so an atom is an isa.Instr whose
// register fields index the wider native register files: each opcode's
// operands, timing class and flop count come from the isa package, and
// the packing rules (atoms per unit, slots per format) are one table
// here that the translator's scheduler reads too.
//
// The machine here both executes atoms (against architectural isa.State,
// so translations can be checked for semantic equivalence against the
// reference interpreter) and accounts cycles with a scoreboard: a molecule
// issues when its source registers are ready and its units free; divides
// and square roots block the FP unit. The scoreboard starts from zero at
// every entry to a translation, so its result depends only on the
// translation, the Timing and the molecule an execution leaves at:
// Machine.Time runs it once per translation, as CMS translates a region
// once, and Machine.Execute runs only the atoms and reports the molecule
// it left at, whose cycles and counts the table Time stored holds.
package vliw

import (
	"fmt"

	"repro/internal/isa"
)

// Unit identifies a functional unit slot in a molecule.
type Unit uint8

const (
	UnitALU Unit = iota // integer ALUs
	UnitFPU             // floating point
	UnitLSU             // load/store
	UnitBRU             // branch
	NumUnits
)

func (u Unit) String() string {
	if u < NumUnits {
		return [NumUnits]string{"ALU", "FPU", "LSU", "BRU"}[u]
	}
	return "?"
}

// unitOfClass routes each timing class to its functional unit.
var unitOfClass = [isa.NumClasses]Unit{
	isa.ClassNop: UnitALU, isa.ClassIntALU: UnitALU, isa.ClassIntMul: UnitALU,
	isa.ClassLoad: UnitLSU, isa.ClassStore: UnitLSU,
	isa.ClassFPAdd: UnitFPU, isa.ClassFPMul: UnitFPU, isa.ClassFPDiv: UnitFPU, isa.ClassFPSqrt: UnitFPU,
	isa.ClassBranch: UnitBRU,
}

// UnitOf maps an atom's opcode to the functional unit that executes it.
func UnitOf(op isa.Op) Unit { return unitOfClass[isa.ClassOf(op)] }

// unitLimits is the packing rule: how many atoms for each unit one
// molecule may carry.
var unitLimits = [NumUnits]uint8{UnitALU: 2, UnitFPU: 1, UnitLSU: 1, UnitBRU: 1}

// Limit returns how many atoms for u one molecule may carry.
func (u Unit) Limit() uint8 { return unitLimits[u] }

// Register-file sizes. The Crusoe's native machine exposes more registers
// than x86 so the translator can rename; registers 0..isa.NumRegs-1 shadow
// the architectural files and the remainder are translation temporaries.
const (
	NumIntRegs = 64
	NumFPRegs  = 32
)

// Molecule is a bundle of up to four atoms that issue together. An atom
// is an isa.Instr whose register fields index the native files; a
// branch's Imm is the x86 PC it exits to, or a HaltCode. Wide reports the
// 128-bit format (up to 4 atoms); the 64-bit format packs at most 2. The
// paper: "Each molecule can be 64 bits or 128 bits long and can contain
// up to four RISC-like instructions called atoms, which are executed in
// parallel."
type Molecule struct {
	Atoms []isa.Instr
	Wide  bool
}

// Slots returns the maximum atom count for the molecule format.
func (m Molecule) Slots() int {
	if m.Wide {
		return 4
	}
	return 2
}

// Validate checks packing rules: at most Limit atoms per unit, a branch
// only in the last slot, no hlt (a halt is a jmp to a HaltCode), register
// indices within the native files, and no two atoms writing the same
// destination register (parallel-write conflict).
func (m *Molecule) Validate() error {
	if len(m.Atoms) == 0 {
		return fmt.Errorf("vliw: empty molecule")
	}
	if len(m.Atoms) > m.Slots() {
		return fmt.Errorf("vliw: %d atoms exceed %d slots", len(m.Atoms), m.Slots())
	}
	var used [NumUnits]uint8
	var intWrites uint64
	var fpWrites uint32
	for i := range m.Atoms {
		a := &m.Atoms[i]
		if a.Op >= isa.NumOps || a.Op == isa.Hlt {
			return fmt.Errorf("vliw: atom %d: bad op %s", i, a.Op)
		}
		u := UnitOf(a.Op)
		if used[u]++; used[u] > u.Limit() {
			return fmt.Errorf("vliw: %d %s atoms (max %d)", used[u], u, u.Limit())
		}
		if isa.IsBranch(a.Op) && i != len(m.Atoms)-1 {
			return fmt.Errorf("vliw: branch atom not in last slot")
		}
		o := a.Operands()
		if err := checkRegs(&o); err != nil {
			return fmt.Errorf("vliw: atom %d (%s): %v", i, a.Op, err)
		}
		switch o.Dst {
		case isa.IntFile:
			if intWrites&(1<<o.Rd) != 0 {
				return fmt.Errorf("vliw: two atoms write r%d", o.Rd)
			}
			intWrites |= 1 << o.Rd
		case isa.FPFile:
			if fpWrites&(1<<o.Rd) != 0 {
				return fmt.Errorf("vliw: two atoms write f%d", o.Rd)
			}
			fpWrites |= 1 << o.Rd
		}
	}
	return nil
}

// checkRegs reports the first register of o outside the native files.
func checkRegs(o *isa.Operands) error {
	for _, r := range o.Ints[:o.NInt] {
		if r >= NumIntRegs {
			return fmt.Errorf("int register %d out of range", r)
		}
	}
	for _, r := range o.FPs[:o.NFP] {
		if r >= NumFPRegs {
			return fmt.Errorf("fp register %d out of range", r)
		}
	}
	if o.Dst == isa.IntFile && o.Rd >= NumIntRegs || o.Dst == isa.FPFile && o.Rd >= NumFPRegs {
		return fmt.Errorf("destination register %d out of range", o.Rd)
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

	// timing is the Timing Machine.Time ran the scoreboard under, and
	// steps[k] what an exit at molecule k reports.
	timing Timing
	steps  []step
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
