package vliw

import (
	"fmt"

	"repro/internal/isa"
)

// ReferenceExecute is referenceExecute for the external differential
// test (execdiff_test.go), which imports the cms translator.
var ReferenceExecute = referenceExecute

// ExecResult is one translation execution's exit, cycles and counts in
// one struct, as the reference computes them per call.
type ExecResult struct {
	ExitPC    int    // x86 PC to continue at
	Cycles    uint64 // cycles the translation took, per the Timing model
	Taken     bool   // whether the exit was a taken branch
	Atoms     uint64 // atoms executed
	Molecules uint64 // molecules issued
	Halted    bool
	// ByClass/Flops count executed atoms for Mflops accounting.
	ByClass [isa.NumClasses]uint64
	Flops   uint64
}

// ExecuteResult runs m.Execute and assembles its ExecResult from the
// exit, the translation's Cycles and a Fold of that one exit: the
// cycles and counts an execution is charged. A faulting execution
// counts the molecules that committed and reports no cycles.
func ExecuteResult(m *Machine, t *Translation, st *State) (ExecResult, error) {
	e, err := m.Execute(t, st)
	res := ExecResult{ExitPC: e.PC, Taken: e.Taken, Halted: e.Halted}
	if e.Mol < 0 {
		return res, err
	}
	if err == nil {
		res.Cycles = t.Cycles(e.Mol)
		if e.Taken {
			res.Cycles += uint64(m.T.BranchPenalty)
		}
	}
	exits := make([]uint64, len(t.Molecules))
	exits[e.Mol] = 1
	var c Counts
	t.Fold(exits, &c)
	res.Atoms, res.Molecules, res.Flops, res.ByClass = c.Atoms, c.Molecules, c.Flops, c.ByClass
	return res, err
}

// referenceExecute executes t the direct way: it runs the scoreboard
// from zero on every call, beside the atoms' semantics, and needs no
// Machine.Time. The differential test holds Execute's table path to it
// field for field.
func referenceExecute(tm Timing, t *Translation, st *State) (ExecResult, error) {
	var res ExecResult
	var regReadyR [NumIntRegs]uint64
	var regReadyF [NumFPRegs]uint64
	var fpuBusyUntil uint64
	var cycle uint64
	var writes [maxMoleculeAtoms]pendingWrite
	var ops [maxMoleculeAtoms]isa.Operands

	mi := 0
	for mi < len(t.Molecules) {
		mol := &t.Molecules[mi]
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

		// Parallel semantics: compute all results, then commit.
		nw := 0
		var branchTo int
		var branched, halted bool
		for i := range mol.Atoms {
			wrote, br, taken, halt, err := execAtom(&mol.Atoms[i], st, &writes[nw])
			if err != nil {
				return res, fmt.Errorf("vliw: molecule %d: %w", mi, err)
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

		// Scoreboard updates and per-class counts.
		for i := range mol.Atoms {
			op := mol.Atoms[i].Op
			c := isa.ClassOf(op)
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
			res.ByClass[c]++
			if isa.IsFlop(op) {
				res.Flops++
			}
		}

		cycle = issue + 1
		res.Molecules++
		res.Atoms += uint64(len(mol.Atoms))

		if halted {
			st.Arch.Halted = true
			res.Halted = true
			res.Cycles = cycle
			res.ExitPC = branchTo
			return res, nil
		}
		if branched {
			cycle += uint64(tm.BranchPenalty)
			res.Cycles = cycle
			res.ExitPC = branchTo
			res.Taken = true
			return res, nil
		}
		mi++
	}
	res.Cycles = cycle
	res.ExitPC = t.FallPC
	return res, nil
}
