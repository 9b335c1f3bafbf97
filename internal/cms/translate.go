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
// MaxRegion limit, or the end of the program. vliw.Machine.Time
// validates the molecules when it times the translation.
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
		if in.Op >= isa.NumOps {
			return nil, fmt.Errorf("cms: pc %d: unknown op %s", pc, in.Op)
		}
		if a, ok := lower(in, pc); ok {
			sched.add(a)
		}
		tr.SrcInstrs++
		pc++
		if in.Op == isa.Jmp || in.Op == isa.Hlt {
			// Unconditional control transfer or hlt ends the region.
			tr.Molecules = sched.finish()
			tr.FallPC = pc // unreachable, but keep it valid
			return tr, nil
		}
	}
	tr.Molecules = sched.finish()
	tr.FallPC = pc
	if len(tr.Molecules) == 0 {
		// Region was all hlt-less empties (cannot happen with a valid
		// program, but keep the invariant that translations are non-empty).
		tr.Molecules = []vliw.Molecule{{Atoms: []isa.Instr{{Op: isa.Nop}}, Wide: t.Wide}}
	}
	return tr, nil
}

func (t *Translator) maxRegion() int {
	if t.MaxRegion <= 0 {
		return 64
	}
	return t.MaxRegion
}

// lower maps one x86 instruction to its atom. The mini ISA is already
// RISC-like, so an instruction is its own atom; the performance win comes
// from the scheduler packing atoms into molecules. A nop vanishes
// (ok=false), and a hlt becomes a jmp to the halt exit.
func lower(in isa.Instr, pc int) (a isa.Instr, ok bool) {
	switch in.Op {
	case isa.Nop:
		return in, false
	case isa.Hlt:
		return isa.Instr{Op: isa.Jmp, Imm: vliw.HaltCode(pc + 1)}, true
	}
	return in, true
}

// scheduler performs greedy in-order list scheduling of atoms into
// molecules, honouring data hazards, memory ordering, unit slots, and
// branch barriers. All scratch state lives in reusable arenas (arrays and
// capacity-retaining slices) so steady-state translation allocates only
// the finished molecules.
type scheduler struct {
	wide  bool
	slots int // atoms per molecule in the chosen format

	// Per-molecule scratch, parallel slices indexed by molecule.
	n      int
	atoms  [][4]isa.Instr
	counts []uint8
	// Unit occupancy per molecule.
	used [][vliw.NumUnits]uint8
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
	s.slots = vliw.Molecule{Wide: wide}.Slots()
	s.n = 0
	s.atoms = s.atoms[:0]
	s.counts = s.counts[:0]
	s.used = s.used[:0]
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

func (s *scheduler) ensure(idx int) {
	for s.n <= idx {
		s.atoms = append(s.atoms, [4]isa.Instr{})
		s.counts = append(s.counts, 0)
		s.used = append(s.used, [vliw.NumUnits]uint8{})
		s.intWrites = append(s.intWrites, 0)
		s.fpWrites = append(s.fpWrites, 0)
		s.flagWrite = append(s.flagWrite, false)
		s.n++
	}
}

// add places the atom in the earliest feasible molecule. Flags are
// modelled as a pseudo-register.
func (s *scheduler) add(a isa.Instr) {
	o := a.Operands()
	ri, rf := o.Ints[:o.NInt], o.FPs[:o.NFP]
	wi, wf := o.Dst == isa.IntFile, o.Dst == isa.FPFile
	unit := vliw.UnitOf(a.Op)
	class := isa.ClassOf(a.Op)
	isLoad, isStore := class == isa.ClassLoad, class == isa.ClassStore
	isBr := unit == vliw.UnitBRU

	// Earliest index from RAW hazards.
	earliest := s.floor
	for _, r := range ri {
		if v := s.intReady[r]; v > earliest {
			earliest = v
		}
	}
	for _, r := range rf {
		if v := s.fpReady[r]; v > earliest {
			earliest = v
		}
	}
	if o.ReadsFlags && s.flagReady > earliest {
		earliest = s.flagReady
	}
	// WAW ordering: a write to r must land strictly after the previous
	// writer's molecule (intReady/fpReady hold producer index + 1).
	if wi && s.intReady[o.Rd] > earliest {
		earliest = s.intReady[o.Rd]
	}
	if wf && s.fpReady[o.Rd] > earliest {
		earliest = s.fpReady[o.Rd]
	}
	if o.WritesFlags && s.flagReady > earliest {
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
		if int(s.counts[idx]) >= s.slots || s.used[idx][unit] >= unit.Limit() {
			continue
		}
		// WAW within molecule.
		if wi && s.intWrites[idx]&(1<<o.Rd) != 0 {
			continue
		}
		if wf && s.fpWrites[idx]&(1<<o.Rd) != 0 {
			continue
		}
		if o.WritesFlags && s.flagWrite[idx] {
			continue
		}
		// Flags RAW/WAW across the same molecule: a flag reader may not
		// share a molecule with a flag writer (a compare applies its write
		// immediately, so parallel-read semantics would break).
		if o.ReadsFlags && s.flagWrite[idx] {
			continue
		}
		if o.WritesFlags && s.flagRead == idx {
			continue
		}
		// WAR: a write may not land before a molecule that reads the old
		// value. Same-molecule WAR is fine (parallel reads).
		if wi && s.intLastRead[o.Rd] > idx {
			continue
		}
		if wf && s.fpLastRead[o.Rd] > idx {
			continue
		}
		if o.WritesFlags && s.flagRead > idx {
			continue
		}

		// Place it.
		s.atoms[idx][s.counts[idx]] = a
		s.counts[idx]++
		s.used[idx][unit]++
		for _, r := range ri {
			if idx > s.intLastRead[r] {
				s.intLastRead[r] = idx
			}
		}
		for _, r := range rf {
			if idx > s.fpLastRead[r] {
				s.fpLastRead[r] = idx
			}
		}
		if o.ReadsFlags && idx > s.flagRead {
			s.flagRead = idx
		}
		if wi {
			s.intWrites[idx] |= 1 << o.Rd
			if idx+1 > s.intReady[o.Rd] {
				s.intReady[o.Rd] = idx + 1
			}
		}
		if wf {
			s.fpWrites[idx] |= 1 << o.Rd
			if idx+1 > s.fpReady[o.Rd] {
				s.fpReady[o.Rd] = idx + 1
			}
		}
		if o.WritesFlags {
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
				if isa.IsBranch(s.atoms[idx][i].Op) {
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
	backing := make([]isa.Instr, 0, total)
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
