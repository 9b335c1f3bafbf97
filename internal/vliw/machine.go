package vliw

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
)

// Timing holds the cycle-accounting parameters of the native engine.
// Latencies are producer→consumer distances in cycles; divide and square
// root additionally block the FP unit (they are not pipelined on Crusoe-
// class FPUs).
type Timing struct {
	IntLatency    int // simple ALU results
	MulLatency    int
	LoadLatency   int // load-use distance
	FPLatency     int // pipelined FP add/mul etc.
	FDivLatency   int
	FSqrtLatency  int
	BranchPenalty int // taken-branch bubble (short in-order pipeline)
}

// TM5600Timing is the default model of the 633-MHz TM5600's engine. The
// values follow the pipeline depths the paper gives (7-stage integer,
// 10-stage FP) and typical latencies for that class of core.
func TM5600Timing() Timing {
	return Timing{
		IntLatency:   1,
		MulLatency:   3,
		LoadLatency:  2,
		FPLatency:    2,
		FDivLatency:  22,
		FSqrtLatency: 28,
		// CMS chains translations and predicts loop back-edges; the
		// residual taken-branch bubble is short.
		BranchPenalty: 1,
	}
}

// same reports whether t and u are the same Timing. Compared field by
// field it compiles to inline compares, where == on the struct calls
// memequal on Execute's hot path.
func (t *Timing) same(u *Timing) bool {
	return t.IntLatency == u.IntLatency && t.MulLatency == u.MulLatency &&
		t.LoadLatency == u.LoadLatency && t.FPLatency == u.FPLatency &&
		t.FDivLatency == u.FDivLatency && t.FSqrtLatency == u.FSqrtLatency &&
		t.BranchPenalty == u.BranchPenalty
}

// Latency is the producer→consumer distance of a timing class's results,
// for translated atoms and interpreted instructions alike.
func (t *Timing) Latency(c isa.Class) int {
	switch c {
	case isa.ClassIntMul:
		return t.MulLatency
	case isa.ClassLoad:
		return t.LoadLatency
	case isa.ClassFPAdd, isa.ClassFPMul:
		return t.FPLatency
	case isa.ClassFPDiv:
		return t.FDivLatency
	case isa.ClassFPSqrt:
		return t.FSqrtLatency
	}
	return t.IntLatency // integer ALU, stores, branches, no-ops
}

// State is the native machine state: the architectural isa.State (whose
// registers 0..isa.NumRegs-1 the low native registers shadow) plus the
// translator's temporary registers.
type State struct {
	Arch *isa.State
	// Temps hold native registers isa.NumRegs..NumIntRegs-1 and
	// isa.NumRegs..NumFPRegs-1.
	TmpR [NumIntRegs - isa.NumRegs]int64
	TmpF [NumFPRegs - isa.NumRegs]float64
	// writes is Execute's parallel-commit buffer. It lives here, not
	// on Execute's stack, so no call zeroes it; Execute reads only the
	// entries a molecule wrote.
	writes [maxMoleculeAtoms]pendingWrite
}

// NewState wraps an architectural state.
func NewState(arch *isa.State) *State {
	return &State{Arch: arch}
}

func (s *State) getR(r uint8) int64 {
	if r < isa.NumRegs {
		return s.Arch.R[r]
	}
	return s.TmpR[r-isa.NumRegs]
}

func (s *State) setR(r uint8, v int64) {
	if r < isa.NumRegs {
		s.Arch.R[r] = v
		return
	}
	s.TmpR[r-isa.NumRegs] = v
}

func (s *State) getF(r uint8) float64 {
	if r < isa.NumRegs {
		return s.Arch.F[r]
	}
	return s.TmpF[r-isa.NumRegs]
}

func (s *State) setF(r uint8, v float64) {
	if r < isa.NumRegs {
		s.Arch.F[r] = v
		return
	}
	s.TmpF[r-isa.NumRegs] = v
}

// Exit reports where one translation execution left its translation.
// The cycles and counts it comes to are the translation's, at Mol:
// Translation.Cycles gives the cycles, Translation.Fold the counts.
type Exit struct {
	// Mol is the molecule the execution left at; after a fault, the
	// last molecule that committed (-1 for none).
	Mol    int
	PC     int  // x86 PC to continue at
	Taken  bool // left through a taken branch
	Halted bool
}

// Counts sums what translation executions ran: atoms, molecules, flops
// and atoms per timing class.
type Counts struct {
	Atoms     uint64
	Molecules uint64
	Flops     uint64
	ByClass   [isa.NumClasses]uint64
}

// Machine executes translations with cycle accounting. Its scoreboard
// (register-ready times and FP-unit busy time) starts from zero at a
// translation's entry and persists across its molecules; cross-
// translation stalls are absorbed into the chaining cost the CMS layer
// charges. Because every execution starts from the same zeroed
// scoreboard and counts whole cycles, what an execution costs depends
// only on the translation, T and the molecule it leaves at, never on
// data: Time runs the scoreboard once per translation, and Execute
// reports only the exit, whose cycles and counts the translation's
// table holds.
type Machine struct {
	T Timing
}

// NewMachine returns a machine with the given timing.
func NewMachine(t Timing) *Machine { return &Machine{T: t} }

// ErrTiming is returned by Execute for a translation that Time did not
// prepare under the executing machine's Timing.
var ErrTiming = errors.New("vliw: translation not timed under this machine's Timing")

// step is what an execution that leaves a translation at molecule k
// costs, before a taken branch's penalty: the cumulative counts of
// molecules 0..k. Counts are uint32 to keep the table small; Time
// rejects a translation whose totals do not fit.
type step struct {
	cycles  uint32 // issue cycle of molecule k, plus one
	atoms   uint32
	flops   uint32
	byClass [isa.NumClasses]uint32
}

type pendingWrite struct {
	fp  bool
	reg uint8
	vi  int64
	vf  float64
}

// maxMoleculeAtoms is the widest molecule format's capacity; it bounds the
// parallel-commit buffer so Execute needs no heap allocation.
const maxMoleculeAtoms = 4

// Time validates t and runs the scoreboard over its molecules once
// under m.T, storing in t the counts an exit at each molecule reports.
// Every translation must pass through Time before Execute runs it; the
// CMS layer times each translation when it makes it. Time must not run
// while t executes. Once it returns, t is only read, so any number of
// goroutines may Execute it on separate States.
func (m *Machine) Time(t *Translation) error {
	if err := t.Validate(); err != nil {
		return err
	}
	steps := make([]step, len(t.Molecules))
	var cycles, atoms uint64
	var acc step
	m.T.scoreboard(t, func(mi int, cyc uint64) {
		for i := range t.Molecules[mi].Atoms {
			op := t.Molecules[mi].Atoms[i].Op
			acc.byClass[isa.ClassOf(op)]++
			if isa.IsFlop(op) {
				acc.flops++
			}
		}
		cycles = cyc
		atoms += uint64(len(t.Molecules[mi].Atoms))
		acc.cycles, acc.atoms = uint32(cycles), uint32(atoms)
		steps[mi] = acc
	})
	if cycles > math.MaxUint32 || atoms > math.MaxUint32 {
		return fmt.Errorf("vliw: translation at pc %d: %d cycles, %d atoms exceed the timing table", t.EntryPC, cycles, atoms)
	}
	t.timing, t.steps = m.T, steps
	return nil
}

// scoreboard runs the scoreboard over t's molecules from zero under
// tm, calling f with each molecule's index and the cycles an execution
// that leaves t there takes, before a taken branch's penalty: the
// molecule's issue cycle, plus one.
func (tm *Timing) scoreboard(t *Translation, f func(mi int, cycles uint64)) {
	var regReadyR [NumIntRegs]uint64
	var regReadyF [NumFPRegs]uint64
	var fpuBusyUntil, cycle uint64
	for mi := range t.Molecules {
		mol := &t.Molecules[mi]
		var ops [maxMoleculeAtoms]isa.Operands
		// Issue time: all sources ready, FP unit free if an FP atom issues.
		issue := cycle
		for i := range mol.Atoms {
			a := &mol.Atoms[i]
			o := &ops[i]
			*o = a.Operands()
			for _, r := range o.Ints[:o.NInt] {
				if regReadyR[r] > issue {
					issue = regReadyR[r]
				}
			}
			for _, r := range o.FPs[:o.NFP] {
				if regReadyF[r] > issue {
					issue = regReadyF[r]
				}
			}
			if UnitOf(a.Op) == UnitFPU && fpuBusyUntil > issue {
				issue = fpuBusyUntil
			}
		}
		for i := range mol.Atoms {
			c := isa.ClassOf(mol.Atoms[i].Op)
			ready := issue + uint64(tm.Latency(c))
			switch o := &ops[i]; o.Dst {
			case isa.IntFile:
				regReadyR[o.Rd] = ready
			case isa.FPFile:
				regReadyF[o.Rd] = ready
			}
			if c == isa.ClassFPDiv || c == isa.ClassFPSqrt {
				fpuBusyUntil = ready
			}
		}
		cycle = issue + 1
		f(mi, cycle)
	}
}

// Execute runs the translation against st until a branch exits, the last
// molecule falls through, or a branch to a HaltCode halts the machine,
// and reports the exit. It runs the atoms' semantics and commits each
// molecule's writes in parallel. The execution costs t.Cycles(e.Mol),
// plus BranchPenalty on a taken exit, and counts what t.Fold credits to
// an exit at e.Mol. If an atom fails, Execute returns the error with
// e.Mol the last molecule that committed. Execute returns ErrTiming,
// with e.Mol -1, unless Time prepared t under m.T, and writes nothing
// into t.
//
// Execute is the simulator's hottest host loop and performs no heap
// allocation: the commit buffer is st's fixed array, and the exit is a
// few words returned by value.
func (m *Machine) Execute(t *Translation, st *State) (e Exit, err error) {
	if len(t.steps) != len(t.Molecules) || !t.timing.same(&m.T) {
		return Exit{Mol: -1}, ErrTiming
	}
	writes := &st.writes
	for mi := range t.Molecules {
		mol := &t.Molecules[mi]
		// Parallel semantics: compute all results, then commit.
		nw := 0
		var branchTo int
		var branched, halted bool
		for i := range mol.Atoms {
			wrote, br, taken, halt, err := execAtom(&mol.Atoms[i], st, &writes[nw])
			if err != nil {
				return Exit{Mol: mi - 1}, fmt.Errorf("vliw: molecule %d: %w", mi, err)
			}
			if wrote {
				nw++
			}
			if taken {
				branched, branchTo = true, br
			}
			if halt {
				halted = true
			}
		}
		for i := 0; i < nw; i++ {
			w := &writes[i]
			if w.fp {
				st.setF(w.reg, w.vf)
			} else {
				st.setR(w.reg, w.vi)
			}
		}
		if halted {
			st.Arch.Halted = true
			return Exit{Mol: mi, PC: branchTo, Halted: true}, nil
		}
		if branched {
			return Exit{Mol: mi, PC: branchTo, Taken: true}, nil
		}
	}
	return Exit{Mol: len(t.Molecules) - 1, PC: t.FallPC}, nil
}

// Cycles returns the cycles of an execution that leaves t at molecule
// k, before a taken branch's penalty. t must have been timed.
func (t *Translation) Cycles(k int) uint64 { return uint64(t.steps[k].cycles) }

// Fold adds to c what exits[k] executions leaving t at molecule k count,
// for every k: exits has one entry per molecule. Every term is an
// integer, so folding counts in any grouping or order gives the same
// sums. t must have been timed.
func (t *Translation) Fold(exits []uint64, c *Counts) {
	for k, n := range exits {
		if n == 0 {
			continue
		}
		s := &t.steps[k]
		c.Atoms += n * uint64(s.atoms)
		c.Molecules += n * uint64(k+1)
		c.Flops += n * uint64(s.flops)
		for cl := range s.byClass {
			c.ByClass[cl] += n * uint64(s.byClass[cl])
		}
	}
}

// Price returns the cycles that exits[k] executions leaving t at
// molecule k take under u, summed over every k, before taken branches'
// penalties: what Cycles sums on a machine timed under u. It runs the
// scoreboard once under u and leaves t's own table alone, so t, timed
// under any Timing, is priced under another without being re-timed.
// exits has one entry per molecule.
func (t *Translation) Price(u *Timing, exits []uint64) uint64 {
	var sum uint64
	u.scoreboard(t, func(mi int, cycles uint64) {
		sum += exits[mi] * cycles
	})
	return sum
}

// HaltCode encodes a halt exit for a branch atom's Imm: the machine halts
// and reports nextPC (the architectural PC after the x86 hlt) as the exit.
func HaltCode(nextPC int) int64 { return -int64(nextPC) - 1 }

// execAtom computes the atom's effect. A register write, if any, goes into
// *w (wrote reports whether it did); taken branches return the exit PC and
// a halt flag. Results are returned by value — no escaping pointers — so
// the per-molecule execution loop is allocation-free.
func execAtom(a *isa.Instr, st *State, w *pendingWrite) (wrote bool, branchTo int, taken, halt bool, err error) {
	arch := st.Arch
	iw := func(reg uint8, v int64) {
		w.fp, w.reg, w.vi = false, reg, v
		wrote = true
	}
	fw := func(reg uint8, v float64) {
		w.fp, w.reg, w.vf = true, reg, v
		wrote = true
	}
	switch a.Op {
	case isa.Nop:
	case isa.MovI:
		iw(a.Rd, a.Imm)
	case isa.Mov:
		iw(a.Rd, st.getR(a.Ra))
	case isa.Add:
		iw(a.Rd, st.getR(a.Ra)+st.getR(a.Rb))
	case isa.AddI:
		iw(a.Rd, st.getR(a.Ra)+a.Imm)
	case isa.Sub:
		iw(a.Rd, st.getR(a.Ra)-st.getR(a.Rb))
	case isa.SubI:
		iw(a.Rd, st.getR(a.Ra)-a.Imm)
	case isa.Mul:
		iw(a.Rd, st.getR(a.Ra)*st.getR(a.Rb))
	case isa.And:
		iw(a.Rd, st.getR(a.Ra)&st.getR(a.Rb))
	case isa.Or:
		iw(a.Rd, st.getR(a.Ra)|st.getR(a.Rb))
	case isa.Xor:
		iw(a.Rd, st.getR(a.Ra)^st.getR(a.Rb))
	case isa.Shl:
		iw(a.Rd, st.getR(a.Ra)<<uint(a.Imm&63))
	case isa.Shr:
		iw(a.Rd, int64(uint64(st.getR(a.Ra))>>uint(a.Imm&63)))
	case isa.Cmp:
		x, y := st.getR(a.Ra), st.getR(a.Rb)
		arch.FlagZ, arch.FlagL = x == y, x < y
	case isa.CmpI:
		x := st.getR(a.Ra)
		arch.FlagZ, arch.FlagL = x == a.Imm, x < a.Imm
	case isa.Ld:
		addr := st.getR(a.Ra) + a.Imm
		if addr < 0 || addr >= int64(len(arch.Mem)) {
			return false, 0, false, false, fmt.Errorf("load address %d out of range", addr)
		}
		iw(a.Rd, arch.LoadI(addr))
	case isa.St:
		addr := st.getR(a.Ra) + a.Imm
		if addr < 0 || addr >= int64(len(arch.Mem)) {
			return false, 0, false, false, fmt.Errorf("store address %d out of range", addr)
		}
		arch.StoreI(addr, st.getR(a.Rb))
	case isa.FLd:
		addr := st.getR(a.Ra) + a.Imm
		if addr < 0 || addr >= int64(len(arch.Mem)) {
			return false, 0, false, false, fmt.Errorf("fload address %d out of range", addr)
		}
		fw(a.Rd, arch.LoadF(addr))
	case isa.FSt:
		addr := st.getR(a.Ra) + a.Imm
		if addr < 0 || addr >= int64(len(arch.Mem)) {
			return false, 0, false, false, fmt.Errorf("fstore address %d out of range", addr)
		}
		arch.StoreF(addr, st.getF(a.Rb))
	case isa.FMovI:
		fw(a.Rd, a.F)
	case isa.FMov:
		fw(a.Rd, st.getF(a.Ra))
	case isa.FAdd:
		fw(a.Rd, st.getF(a.Ra)+st.getF(a.Rb))
	case isa.FSub:
		fw(a.Rd, st.getF(a.Ra)-st.getF(a.Rb))
	case isa.FMul:
		fw(a.Rd, st.getF(a.Ra)*st.getF(a.Rb))
	case isa.FDiv:
		fw(a.Rd, st.getF(a.Ra)/st.getF(a.Rb))
	case isa.FSqrt:
		fw(a.Rd, math.Sqrt(st.getF(a.Ra)))
	case isa.FNeg:
		fw(a.Rd, -st.getF(a.Ra))
	case isa.FAbs:
		fw(a.Rd, math.Abs(st.getF(a.Ra)))
	case isa.CvtIF:
		fw(a.Rd, float64(st.getR(a.Ra)))
	case isa.CvtFI:
		iw(a.Rd, int64(st.getF(a.Ra)))
	case isa.FCmp:
		x, y := st.getF(a.Ra), st.getF(a.Rb)
		arch.FlagZ, arch.FlagL = x == y, x < y
	case isa.Jmp, isa.Jz, isa.Jnz, isa.Jl, isa.Jle, isa.Jg, isa.Jge:
		take := false
		switch a.Op {
		case isa.Jmp:
			take = true
		case isa.Jz:
			take = arch.FlagZ
		case isa.Jnz:
			take = !arch.FlagZ
		case isa.Jl:
			take = arch.FlagL
		case isa.Jle:
			take = arch.FlagL || arch.FlagZ
		case isa.Jg:
			take = !arch.FlagL && !arch.FlagZ
		case isa.Jge:
			take = !arch.FlagL
		}
		if !take {
			return false, 0, false, false, nil
		}
		if a.Imm < 0 {
			return false, int(-a.Imm - 1), true, true, nil
		}
		return false, int(a.Imm), true, false, nil
	default:
		return false, 0, false, false, fmt.Errorf("unknown atom op %d", a.Op)
	}
	return wrote, 0, false, false, nil
}
