// Package cms models Transmeta's Code Morphing Software as the paper's
// §2.2 describes it: an interpreter that executes x86 instructions one at
// a time while collecting run-time statistics, and a translator that
// recompiles hot x86 regions into optimized VLIW molecules, cached in a
// translation cache so the (large) translation cost is amortized over
// repeated executions.
package cms

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/vliw"
)

// Translator converts x86 regions into VLIW translations. It owns a
// reusable scheduler arena, so a Translator must not be shared between
// goroutines (each cms.Machine has its own).
type Translator struct {
	// MaxRegion bounds the number of x86 instructions in one region
	// (block along the fallthrough path).
	MaxRegion int
	// Wide selects the 128-bit (4-atom) molecule format; narrow (64-bit,
	// 2-atom) is kept for the molecule-width ablation.
	Wide bool

	sched scheduler // scratch, reset per translation
}

// NewTranslator returns a translator with the default region size and the
// wide molecule format.
func NewTranslator() *Translator {
	return &Translator{MaxRegion: 64, Wide: true}
}

// Translate builds a translation for the region starting at entryPC. The
// region follows the fallthrough path: conditional branches become
// side-exits, and the region ends at an unconditional jump, a hlt, the
// MaxRegion limit, or the end of the program.
func (t *Translator) Translate(p isa.Program, entryPC int) (*vliw.Translation, error) {
	if entryPC < 0 || entryPC >= len(p) {
		return nil, fmt.Errorf("cms: translate entry %d out of range", entryPC)
	}
	tr := &vliw.Translation{EntryPC: entryPC}
	sched := &t.sched
	sched.reset(t.Wide)
	pc := entryPC
	for tr.SrcInstrs < t.maxRegion() && pc < len(p) {
		in := p[pc]
		atoms, exit, err := lower(in, pc)
		if err != nil {
			return nil, fmt.Errorf("cms: pc %d: %w", pc, err)
		}
		for _, a := range atoms {
			sched.add(a)
		}
		tr.SrcInstrs++
		pc++
		if exit {
			// Unconditional control transfer or hlt ends the region.
			tr.Molecules = sched.finish()
			tr.FallPC = pc // unreachable, but keep it valid
			if err := tr.Validate(); err != nil {
				return nil, err
			}
			return tr, nil
		}
	}
	tr.Molecules = sched.finish()
	tr.FallPC = pc
	if len(tr.Molecules) == 0 {
		// Region was all hlt-less empties (cannot happen with a valid
		// program, but keep the invariant that translations are non-empty).
		tr.Molecules = []vliw.Molecule{{Atoms: []vliw.Atom{{Op: vliw.ANop}}, Wide: t.Wide}}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

func (t *Translator) maxRegion() int {
	if t.MaxRegion <= 0 {
		return 64
	}
	return t.MaxRegion
}

// lower maps one x86 instruction to native atoms. The mini ISA is already
// RISC-like, so lowering is one atom per instruction; the performance win
// comes from the scheduler packing those atoms into molecules. It returns
// exit=true when the instruction unconditionally leaves the region.
func lower(in isa.Instr, pc int) ([]vliw.Atom, bool, error) {
	a := vliw.Atom{Dst: in.Rd, Src1: in.Ra, Src2: in.Rb, Imm: in.Imm, F: in.F}
	switch in.Op {
	case isa.Nop:
		return nil, false, nil // pure no-ops vanish in translation
	case isa.Hlt:
		return []vliw.Atom{{Op: vliw.ABr, Imm: vliw.HaltCode(pc + 1)}}, true, nil
	case isa.MovI:
		a.Op = vliw.AMovI
	case isa.Mov:
		a.Op = vliw.AMov
	case isa.Add:
		a.Op = vliw.AAdd
	case isa.AddI:
		a.Op = vliw.AAddI
	case isa.Sub:
		a.Op = vliw.ASub
	case isa.SubI:
		a.Op = vliw.ASubI
	case isa.Mul:
		a.Op = vliw.AMul
	case isa.And:
		a.Op = vliw.AAnd
	case isa.Or:
		a.Op = vliw.AOr
	case isa.Xor:
		a.Op = vliw.AXor
	case isa.Shl:
		a.Op = vliw.AShl
	case isa.Shr:
		a.Op = vliw.AShr
	case isa.Cmp:
		a.Op = vliw.ACmp
	case isa.CmpI:
		a.Op = vliw.ACmpI
	case isa.Ld:
		a.Op = vliw.ALd
	case isa.St:
		a.Op = vliw.ASt
	case isa.FLd:
		a.Op = vliw.AFLd
	case isa.FSt:
		a.Op = vliw.AFSt
	case isa.FMovI:
		a.Op = vliw.AFMovI
	case isa.FMov:
		a.Op = vliw.AFMov
	case isa.FAdd:
		a.Op = vliw.AFAdd
	case isa.FSub:
		a.Op = vliw.AFSub
	case isa.FMul:
		a.Op = vliw.AFMul
	case isa.FDiv:
		a.Op = vliw.AFDiv
	case isa.FSqrt:
		a.Op = vliw.AFSqrt
	case isa.FNeg:
		a.Op = vliw.AFNeg
	case isa.FAbs:
		a.Op = vliw.AFAbs
	case isa.CvtIF:
		a.Op = vliw.ACvtIF
	case isa.CvtFI:
		a.Op = vliw.ACvtFI
	case isa.FCmp:
		a.Op = vliw.AFCmp
	case isa.Jmp:
		return []vliw.Atom{{Op: vliw.ABr, Imm: in.Imm}}, true, nil
	case isa.Jz:
		return []vliw.Atom{{Op: vliw.ABrZ, Imm: in.Imm}}, false, nil
	case isa.Jnz:
		return []vliw.Atom{{Op: vliw.ABrNZ, Imm: in.Imm}}, false, nil
	case isa.Jl:
		return []vliw.Atom{{Op: vliw.ABrL, Imm: in.Imm}}, false, nil
	case isa.Jle:
		return []vliw.Atom{{Op: vliw.ABrLE, Imm: in.Imm}}, false, nil
	case isa.Jg:
		return []vliw.Atom{{Op: vliw.ABrG, Imm: in.Imm}}, false, nil
	case isa.Jge:
		return []vliw.Atom{{Op: vliw.ABrGE, Imm: in.Imm}}, false, nil
	default:
		return nil, false, fmt.Errorf("unknown op %s", in.Op)
	}
	return []vliw.Atom{a}, false, nil
}

// noReg marks "no register" in atomDeps' write results.
const noReg = -1

// scheduler performs greedy in-order list scheduling of atoms into
// molecules, honouring data hazards, memory ordering, unit slots, and
// branch barriers. All scratch state lives in reusable arenas (arrays and
// capacity-retaining slices) so steady-state translation allocates only
// the finished molecules.
type scheduler struct {
	wide bool

	// Per-molecule scratch, parallel slices indexed by molecule.
	n      int
	atoms  [][4]vliw.Atom
	counts []uint8
	// Unit occupancy per molecule.
	aluUsed, fpuUsed, lsuUsed, bruUsed []uint8
	// Per-molecule write sets (bitsets) for WAW checks.
	intWrites []uint64
	fpWrites  []uint32
	flagWrite []bool

	// Hazard bookkeeping: the molecule index *after* which the value is
	// safe to read (producer molecule + 1), per register.
	intReady  [vliw.NumIntRegs]int
	fpReady   [vliw.NumFPRegs]int
	flagReady int
	// WAR: last molecule index that reads a register; a write must not be
	// placed before it (parallel reads make same-molecule WAR legal).
	intLastRead [vliw.NumIntRegs]int
	fpLastRead  [vliw.NumFPRegs]int
	flagRead    int
	// Memory ordering.
	lastStoreMol int // index of molecule with the last store, -1 none
	lastLoadMol  int
	// Branch barrier: no atom may be placed at or before this index.
	floor int
}

// reset prepares the scheduler for a new translation, retaining arena
// capacity from previous uses.
func (s *scheduler) reset(wide bool) {
	s.wide = wide
	s.n = 0
	s.atoms = s.atoms[:0]
	s.counts = s.counts[:0]
	s.aluUsed = s.aluUsed[:0]
	s.fpuUsed = s.fpuUsed[:0]
	s.lsuUsed = s.lsuUsed[:0]
	s.bruUsed = s.bruUsed[:0]
	s.intWrites = s.intWrites[:0]
	s.fpWrites = s.fpWrites[:0]
	s.flagWrite = s.flagWrite[:0]
	for i := range s.intReady {
		s.intReady[i] = 0
		s.intLastRead[i] = 0
	}
	for i := range s.fpReady {
		s.fpReady[i] = 0
		s.fpLastRead[i] = 0
	}
	s.flagReady, s.flagRead = 0, -1
	s.lastStoreMol, s.lastLoadMol = -1, -1
	s.floor = 0
}

func (s *scheduler) slots() int {
	if s.wide {
		return 4
	}
	return 2
}

func (s *scheduler) ensure(idx int) {
	for s.n <= idx {
		s.atoms = append(s.atoms, [4]vliw.Atom{})
		s.counts = append(s.counts, 0)
		s.aluUsed = append(s.aluUsed, 0)
		s.fpuUsed = append(s.fpuUsed, 0)
		s.lsuUsed = append(s.lsuUsed, 0)
		s.bruUsed = append(s.bruUsed, 0)
		s.intWrites = append(s.intWrites, 0)
		s.fpWrites = append(s.fpWrites, 0)
		s.flagWrite = append(s.flagWrite, false)
		s.n++
	}
}

// atomDeps returns the registers the atom reads and writes, with flags
// modelled as pseudo-register reads/writes. Reads come back in fixed
// arrays with a count; writes are noReg when absent.
func atomDeps(a *vliw.Atom) (ri [2]uint8, nri int, rf [2]uint8, nrf int, wi, wf int, rFlags, wFlags bool) {
	wi, wf = noReg, noReg
	switch a.Op {
	case vliw.ACmp, vliw.ACmpI, vliw.AFCmp:
		wFlags = true
	case vliw.ABrZ, vliw.ABrNZ, vliw.ABrL, vliw.ABrLE, vliw.ABrG, vliw.ABrGE:
		rFlags = true
	}
	switch a.Op {
	case vliw.AMov, vliw.AAddI, vliw.ASubI, vliw.AShl, vliw.AShr, vliw.ACmpI, vliw.ACvtIF, vliw.ALd, vliw.AFLd:
		ri[0], nri = a.Src1, 1
	case vliw.AAdd, vliw.ASub, vliw.AMul, vliw.AAnd, vliw.AOr, vliw.AXor, vliw.ACmp, vliw.ASt:
		ri[0], ri[1], nri = a.Src1, a.Src2, 2
	case vliw.AFSt:
		ri[0], nri = a.Src1, 1
		rf[0], nrf = a.Src2, 1
	case vliw.AFMov, vliw.AFSqrt, vliw.AFNeg, vliw.AFAbs, vliw.ACvtFI:
		rf[0], nrf = a.Src1, 1
	case vliw.AFAdd, vliw.AFSub, vliw.AFMul, vliw.AFDiv, vliw.AFCmp:
		rf[0], rf[1], nrf = a.Src1, a.Src2, 2
	}
	switch a.Op {
	case vliw.AMovI, vliw.AMov, vliw.AAdd, vliw.AAddI, vliw.ASub, vliw.ASubI,
		vliw.AMul, vliw.AAnd, vliw.AOr, vliw.AXor, vliw.AShl, vliw.AShr,
		vliw.ALd, vliw.ACvtFI:
		wi = int(a.Dst)
	case vliw.AFMovI, vliw.AFMov, vliw.AFAdd, vliw.AFSub, vliw.AFMul,
		vliw.AFDiv, vliw.AFSqrt, vliw.AFNeg, vliw.AFAbs, vliw.ACvtIF, vliw.AFLd:
		wf = int(a.Dst)
	}
	return
}

// add places the atom in the earliest feasible molecule.
func (s *scheduler) add(a vliw.Atom) {
	ri, nri, rf, nrf, wi, wf, rFlags, wFlags := atomDeps(&a)
	unit := vliw.UnitOf(a.Op)
	isLoad := a.Op == vliw.ALd || a.Op == vliw.AFLd
	isStore := a.Op == vliw.ASt || a.Op == vliw.AFSt
	isBr := vliw.IsBranch(a.Op)

	// Earliest index from RAW hazards.
	earliest := s.floor
	for k := 0; k < nri; k++ {
		if v := s.intReady[ri[k]]; v > earliest {
			earliest = v
		}
	}
	for k := 0; k < nrf; k++ {
		if v := s.fpReady[rf[k]]; v > earliest {
			earliest = v
		}
	}
	if rFlags && s.flagReady > earliest {
		earliest = s.flagReady
	}
	// WAW ordering: a write to r must land strictly after the previous
	// writer's molecule (intReady/fpReady hold producer index + 1).
	if wi >= 0 && s.intReady[wi] > earliest {
		earliest = s.intReady[wi]
	}
	if wf >= 0 && s.fpReady[wf] > earliest {
		earliest = s.fpReady[wf]
	}
	if wFlags && s.flagReady > earliest {
		earliest = s.flagReady
	}
	// Memory ordering: loads after stores; stores after loads and stores.
	if isLoad && s.lastStoreMol+1 > earliest {
		earliest = s.lastStoreMol + 1
	}
	if isStore {
		if s.lastStoreMol+1 > earliest {
			earliest = s.lastStoreMol + 1
		}
		if s.lastLoadMol+1 > earliest {
			earliest = s.lastLoadMol + 1
		}
	}
	// Branch barrier: a branch must come at or after every scheduled atom.
	if isBr {
		for i := s.n - 1; i >= earliest; i-- {
			if s.counts[i] > 0 {
				if i > earliest {
					earliest = i
				}
				break
			}
		}
	}

	for idx := earliest; ; idx++ {
		s.ensure(idx)
		if int(s.counts[idx]) >= s.slots() {
			continue
		}
		// Unit slot availability.
		switch unit {
		case vliw.UnitALU:
			if s.aluUsed[idx] >= 2 {
				continue
			}
		case vliw.UnitFPU:
			if s.fpuUsed[idx] >= 1 {
				continue
			}
		case vliw.UnitLSU:
			if s.lsuUsed[idx] >= 1 {
				continue
			}
		case vliw.UnitBRU:
			if s.bruUsed[idx] >= 1 {
				continue
			}
		}
		// WAW within molecule.
		if wi >= 0 && s.intWrites[idx]&(1<<uint(wi)) != 0 {
			continue
		}
		if wf >= 0 && s.fpWrites[idx]&(1<<uint(wf)) != 0 {
			continue
		}
		if wFlags && s.flagWrite[idx] {
			continue
		}
		// Flags RAW/WAW across the same molecule: a flag reader may not
		// share a molecule with a flag writer (ACmp applies its write
		// immediately, so parallel-read semantics would break).
		if rFlags && s.flagWrite[idx] {
			continue
		}
		if wFlags && s.flagRead == idx {
			continue
		}
		// WAR: a write may not land before a molecule that reads the old
		// value. Same-molecule WAR is fine (parallel reads).
		if wi >= 0 && s.intLastRead[wi] > idx {
			continue
		}
		if wf >= 0 && s.fpLastRead[wf] > idx {
			continue
		}
		if wFlags && s.flagRead > idx {
			continue
		}

		// Place it.
		s.atoms[idx][s.counts[idx]] = a
		s.counts[idx]++
		switch unit {
		case vliw.UnitALU:
			s.aluUsed[idx]++
		case vliw.UnitFPU:
			s.fpuUsed[idx]++
		case vliw.UnitLSU:
			s.lsuUsed[idx]++
		case vliw.UnitBRU:
			s.bruUsed[idx]++
		}
		for k := 0; k < nri; k++ {
			if idx > s.intLastRead[ri[k]] {
				s.intLastRead[ri[k]] = idx
			}
		}
		for k := 0; k < nrf; k++ {
			if idx > s.fpLastRead[rf[k]] {
				s.fpLastRead[rf[k]] = idx
			}
		}
		if rFlags && idx > s.flagRead {
			s.flagRead = idx
		}
		if wi >= 0 {
			s.intWrites[idx] |= 1 << uint(wi)
			if idx+1 > s.intReady[wi] {
				s.intReady[wi] = idx + 1
			}
		}
		if wf >= 0 {
			s.fpWrites[idx] |= 1 << uint(wf)
			if idx+1 > s.fpReady[wf] {
				s.fpReady[wf] = idx + 1
			}
		}
		if wFlags {
			s.flagWrite[idx] = true
			if idx+1 > s.flagReady {
				s.flagReady = idx + 1
			}
		}
		if isLoad && idx > s.lastLoadMol {
			s.lastLoadMol = idx
		}
		if isStore && idx > s.lastStoreMol {
			s.lastStoreMol = idx
		}
		if isBr {
			// Nothing may move at or before the branch's molecule, and the
			// branch must be the last atom of its molecule.
			s.floor = idx + 1
			last := s.counts[idx] - 1
			for i := uint8(0); i < last; i++ {
				if vliw.IsBranch(s.atoms[idx][i].Op) {
					s.atoms[idx][i], s.atoms[idx][last] = s.atoms[idx][last], s.atoms[idx][i]
				}
			}
		}
		return
	}
}

// finish returns the scheduled molecules, dropping empties. The atoms of
// every molecule share one backing array, so a finished translation is a
// single contiguous allocation plus the molecule headers.
func (s *scheduler) finish() []vliw.Molecule {
	total, used := 0, 0
	for i := 0; i < s.n; i++ {
		if s.counts[i] > 0 {
			used++
			total += int(s.counts[i])
		}
	}
	if used == 0 {
		return nil
	}
	backing := make([]vliw.Atom, 0, total)
	out := make([]vliw.Molecule, 0, used)
	for i := 0; i < s.n; i++ {
		c := int(s.counts[i])
		if c == 0 {
			continue
		}
		start := len(backing)
		backing = append(backing, s.atoms[i][:c]...)
		out = append(out, vliw.Molecule{Atoms: backing[start : start+c : start+c], Wide: s.wide})
	}
	return out
}
