// Package isa defines the x86-like mini instruction set that stands in for
// the paper's x86 binaries. The Transmeta Code Morphing Software in
// internal/cms consumes programs in this ISA (interpreting, then
// translating them to VLIW molecules), and the hardware-CPU timing models
// in internal/cpu consume dynamic traces of the same programs. A reference
// interpreter defines the architectural semantics that every execution
// engine must match.
//
// Simplifications versus real IA-32, documented here once: registers are
// 64-bit and flat (16 integer, 16 floating point — no x87 stack), memory is
// an array of 8-byte words addressed by word index, and there is no
// privileged state. None of these affect the behaviours the paper measures
// (instruction-level parallelism, translation locality, op mix).
package isa

import "fmt"

// Op enumerates the instruction opcodes.
type Op uint8

const (
	Nop Op = iota
	Hlt    // stop execution

	// Integer ALU.
	MovI // rd ← imm
	Mov  // rd ← ra
	Add  // rd ← ra + rb
	AddI // rd ← ra + imm
	Sub  // rd ← ra - rb
	SubI // rd ← ra - imm
	Mul  // rd ← ra * rb
	And  // rd ← ra & rb
	Or   // rd ← ra | rb
	Xor  // rd ← ra ^ rb
	Shl  // rd ← ra << (imm & 63)
	Shr  // rd ← ra >> (imm & 63) (logical)
	Cmp  // flags ← compare(ra, rb)
	CmpI // flags ← compare(ra, imm)

	// Memory (word addressed: address = R[ra] + imm).
	Ld  // rd ← mem[R[ra]+imm] as int
	St  // mem[R[ra]+imm] ← R[rb]
	FLd // fd ← mem[R[ra]+imm] as float
	FSt // mem[R[ra]+imm] ← F[rb]

	// Floating point.
	FMovI // fd ← fimm
	FMov  // fd ← fa
	FAdd  // fd ← fa + fb
	FSub  // fd ← fa - fb
	FMul  // fd ← fa * fb
	FDiv  // fd ← fa / fb
	FSqrt // fd ← sqrt(fa)
	FNeg  // fd ← -fa
	FAbs  // fd ← |fa|
	CvtIF // fd ← float(R[ra])
	CvtFI // rd ← int(F[fa]) (truncating)
	FCmp  // flags ← compare(fa, fb)

	// Control flow (absolute instruction-index targets).
	Jmp
	Jz  // jump if zero flag
	Jnz // jump if not zero
	Jl  // jump if less (signed)
	Jle
	Jg
	Jge

	NumOps // the opcode count
)

// Class buckets opcodes for timing models.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassLoad
	ClassStore
	ClassFPAdd // add/sub/neg/abs/moves/converts
	ClassFPMul
	ClassFPDiv
	ClassFPSqrt
	ClassBranch
	NumClasses
)

// File names the register file an operand indexes.
type File uint8

const (
	NoFile File = iota // the operand is unused
	IntFile
	FPFile
)

// opDef is everything the assembler, execution engines and timing models
// need to know of an opcode, defined once: its mnemonic, timing class,
// whether it counts as a flop (the convention the paper's codes use:
// arithmetic only, moves and converts excluded), the file each of Rd, Ra
// and Rb names, whether it reads or writes the condition flags, and
// whether it takes an integer immediate operand (memory displacements and
// branch targets aside).
type opDef struct {
	name        string
	class       Class
	flop        bool
	rd, ra, rb  File
	readsFlags  bool
	writesFlags bool
	imm         bool
}

var opDefs = [NumOps]opDef{
	Nop: {name: "nop", class: ClassNop},
	Hlt: {name: "hlt", class: ClassNop},

	MovI: {name: "movi", class: ClassIntALU, rd: IntFile, imm: true},
	Mov:  {name: "mov", class: ClassIntALU, rd: IntFile, ra: IntFile},
	Add:  {name: "add", class: ClassIntALU, rd: IntFile, ra: IntFile, rb: IntFile},
	AddI: {name: "addi", class: ClassIntALU, rd: IntFile, ra: IntFile, imm: true},
	Sub:  {name: "sub", class: ClassIntALU, rd: IntFile, ra: IntFile, rb: IntFile},
	SubI: {name: "subi", class: ClassIntALU, rd: IntFile, ra: IntFile, imm: true},
	Mul:  {name: "mul", class: ClassIntMul, rd: IntFile, ra: IntFile, rb: IntFile},
	And:  {name: "and", class: ClassIntALU, rd: IntFile, ra: IntFile, rb: IntFile},
	Or:   {name: "or", class: ClassIntALU, rd: IntFile, ra: IntFile, rb: IntFile},
	Xor:  {name: "xor", class: ClassIntALU, rd: IntFile, ra: IntFile, rb: IntFile},
	Shl:  {name: "shl", class: ClassIntALU, rd: IntFile, ra: IntFile, imm: true},
	Shr:  {name: "shr", class: ClassIntALU, rd: IntFile, ra: IntFile, imm: true},
	Cmp:  {name: "cmp", class: ClassIntALU, ra: IntFile, rb: IntFile, writesFlags: true},
	CmpI: {name: "cmpi", class: ClassIntALU, ra: IntFile, writesFlags: true, imm: true},

	Ld:  {name: "ld", class: ClassLoad, rd: IntFile, ra: IntFile},
	St:  {name: "st", class: ClassStore, ra: IntFile, rb: IntFile},
	FLd: {name: "fld", class: ClassLoad, rd: FPFile, ra: IntFile},
	FSt: {name: "fst", class: ClassStore, ra: IntFile, rb: FPFile},

	FMovI: {name: "fmovi", class: ClassFPAdd, rd: FPFile},
	FMov:  {name: "fmov", class: ClassFPAdd, rd: FPFile, ra: FPFile},
	FAdd:  {name: "fadd", class: ClassFPAdd, flop: true, rd: FPFile, ra: FPFile, rb: FPFile},
	FSub:  {name: "fsub", class: ClassFPAdd, flop: true, rd: FPFile, ra: FPFile, rb: FPFile},
	FMul:  {name: "fmul", class: ClassFPMul, flop: true, rd: FPFile, ra: FPFile, rb: FPFile},
	FDiv:  {name: "fdiv", class: ClassFPDiv, flop: true, rd: FPFile, ra: FPFile, rb: FPFile},
	FSqrt: {name: "fsqrt", class: ClassFPSqrt, flop: true, rd: FPFile, ra: FPFile},
	FNeg:  {name: "fneg", class: ClassFPAdd, flop: true, rd: FPFile, ra: FPFile},
	FAbs:  {name: "fabs", class: ClassFPAdd, flop: true, rd: FPFile, ra: FPFile},
	CvtIF: {name: "cvtif", class: ClassFPAdd, rd: FPFile, ra: IntFile},
	CvtFI: {name: "cvtfi", class: ClassFPAdd, rd: IntFile, ra: FPFile},
	FCmp:  {name: "fcmp", class: ClassFPAdd, ra: FPFile, rb: FPFile, writesFlags: true},

	Jmp: {name: "jmp", class: ClassBranch},
	Jz:  {name: "jz", class: ClassBranch, readsFlags: true},
	Jnz: {name: "jnz", class: ClassBranch, readsFlags: true},
	Jl:  {name: "jl", class: ClassBranch, readsFlags: true},
	Jle: {name: "jle", class: ClassBranch, readsFlags: true},
	Jg:  {name: "jg", class: ClassBranch, readsFlags: true},
	Jge: {name: "jge", class: ClassBranch, readsFlags: true},
}

// ClassOf maps an opcode to its timing class.
func ClassOf(op Op) Class { return opDefs[op].class }

// IsBranch reports whether op can change the program counter.
func IsBranch(op Op) bool { return op >= Jmp && op <= Jge }

// IsCondBranch reports whether op is a conditional branch.
func IsCondBranch(op Op) bool { return op >= Jz && op <= Jge }

// IsFlop reports whether op counts as a floating-point operation for
// Mflops accounting.
func IsFlop(op Op) bool { return opDefs[op].flop }

func (op Op) String() string {
	if op < NumOps {
		return opDefs[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Instr is one decoded instruction. Rd/Ra/Rb index either the integer or
// the floating-point file depending on the opcode. Imm doubles as the
// branch target (instruction index) for control flow and the displacement
// for memory ops; F holds floating-point immediates.
type Instr struct {
	Op  Op
	Rd  uint8
	Ra  uint8
	Rb  uint8
	Imm int64
	F   float64
}

// NumRegs is the size of each register file.
const NumRegs = 16

// Operands is an instruction's register signature: the registers it
// reads in each file (Ints[:NInt], FPs[:NFP]) and whether it reads the
// flags, then the file and index of the register it writes (Dst is NoFile
// when it writes none) and whether it writes the flags. Every engine and
// timing model takes its dependences from here.
type Operands struct {
	Ints, FPs   [2]uint8
	NInt, NFP   uint8
	ReadsFlags  bool
	Dst         File
	Rd          uint8
	WritesFlags bool
}

// Operands returns in's register signature.
func (in *Instr) Operands() Operands {
	d := &opDefs[in.Op]
	o := Operands{ReadsFlags: d.readsFlags, Dst: d.rd, WritesFlags: d.writesFlags}
	if d.rd != NoFile {
		o.Rd = in.Rd
	}
	o.read(d.ra, in.Ra)
	o.read(d.rb, in.Rb)
	return o
}

func (o *Operands) read(f File, r uint8) {
	switch f {
	case IntFile:
		o.Ints[o.NInt] = r
		o.NInt++
	case FPFile:
		o.FPs[o.NFP] = r
		o.NFP++
	}
}

// Program is a sequence of instructions; entry is index 0.
type Program []Instr

// Validate checks register indices and branch targets, so execution engines
// can skip bounds checks in their hot loops.
func (p Program) Validate() error {
	for i, in := range p {
		if in.Op >= NumOps {
			return fmt.Errorf("isa: instr %d: bad opcode %d", i, in.Op)
		}
		if in.Rd >= NumRegs || in.Ra >= NumRegs || in.Rb >= NumRegs {
			return fmt.Errorf("isa: instr %d (%s): register out of range", i, in.Op)
		}
		if IsBranch(in.Op) {
			if in.Imm < 0 || in.Imm >= int64(len(p)) {
				return fmt.Errorf("isa: instr %d (%s): branch target %d out of range [0,%d)", i, in.Op, in.Imm, len(p))
			}
		}
	}
	return nil
}
