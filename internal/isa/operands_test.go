package isa

import (
	"math/rand"
	"testing"
)

// randomOperandState returns a state whose integer registers are small
// (so R[ra]+imm addresses stay inside memory and compares often tie),
// whose FP registers are small non-NaN values, and whose flags and memory
// are random.
func randomOperandState(rng *rand.Rand) *State {
	s := NewState(16)
	for i := range s.R {
		s.R[i] = rng.Int63n(8)
	}
	for i := range s.F {
		s.F[i] = float64(rng.Intn(5)) - 2
	}
	for i := range s.Mem {
		s.Mem[i] = rng.Uint64()
	}
	s.FlagZ, s.FlagL = rng.Intn(2) == 0, rng.Intn(2) == 0
	return s
}

// stepped returns the state after executing in once from s.
func stepped(t *testing.T, in Instr, s *State) *State {
	t.Helper()
	out := s.Clone()
	if err := Step(Program{in}, out, nil); err != nil {
		t.Fatalf("%s: %v", Disassemble(in), err)
	}
	return out
}

// TestOperandsMatchStep checks every opcode's one register signature
// against the reference interpreter over seeded random states:
//   - changing a register (or the flags) outside the read set leaves
//     Step's effect unchanged, and changing each declared read changes it
//     in some state, so the read set is exact;
//   - Step writes no register outside the write set;
//   - only flag writers change the flags;
//   - the flag readers are exactly the conditional branches.
func TestOperandsMatchStep(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for op := Op(0); op < NumOps; op++ {
		in0 := Instr{Op: op}
		if o := in0.Operands(); o.ReadsFlags != IsCondBranch(op) {
			t.Errorf("%s: ReadsFlags = %v, IsCondBranch = %v", op, o.ReadsFlags, IsCondBranch(op))
		}
		// matters[k] records whether changing the register in operand
		// position k (Ra, Rb), when it is read there and nowhere else,
		// ever changed the effect.
		var matters [2]bool
		for trial := 0; trial < 200; trial++ {
			in := Instr{Op: op, Rd: uint8(rng.Intn(NumRegs)), Ra: uint8(rng.Intn(NumRegs)),
				Rb: uint8(rng.Intn(NumRegs)), Imm: rng.Int63n(8), F: float64(rng.Intn(9)) - 4}
			o := in.Operands()
			var readsR, readsF [NumRegs]bool
			for _, r := range o.Ints[:o.NInt] {
				readsR[r] = true
			}
			for _, r := range o.FPs[:o.NFP] {
				readsF[r] = true
			}
			writesR := func(r int) bool { return o.Dst == IntFile && int(o.Rd) == r }
			writesF := func(r int) bool { return o.Dst == FPFile && int(o.Rd) == r }

			var changedR, changedF [NumRegs]bool
			s := randomOperandState(rng)
			after := stepped(t, in, s)
			for r := range s.R {
				if !writesR(r) && after.R[r] != s.R[r] {
					t.Fatalf("%s wrote r%d outside its write set", Disassemble(in), r)
				}
			}
			for r := range s.F {
				if !writesF(r) && after.F[r] != s.F[r] {
					t.Fatalf("%s wrote f%d outside its write set", Disassemble(in), r)
				}
			}
			if !o.WritesFlags && (after.FlagZ != s.FlagZ || after.FlagL != s.FlagL) {
				t.Fatalf("%s changed the flags without writing them", Disassemble(in))
			}

			// Perturb one register at a time: outside the read set the
			// effect must not move; inside it, record whether it did.
			for r := 0; r < NumRegs; r++ {
				p := s.Clone()
				p.R[r] = (s.R[r] + 1 + rng.Int63n(7)) % 8
				got := stepped(t, in, p)
				want := after.Clone()
				if !writesR(r) {
					want.R[r] = p.R[r]
				}
				same := got.Equal(want)
				if !readsR[r] && !same {
					t.Fatalf("%s: changing unread r%d changed the effect", Disassemble(in), r)
				}
				changedR[r] = !same
			}
			for r := 0; r < NumRegs; r++ {
				p := s.Clone()
				p.F[r] = s.F[r] + float64(1+rng.Intn(3))
				got := stepped(t, in, p)
				want := after.Clone()
				if !writesF(r) {
					want.F[r] = p.F[r]
				}
				same := got.Equal(want)
				if !readsF[r] && !same {
					t.Fatalf("%s: changing unread f%d changed the effect", Disassemble(in), r)
				}
				changedF[r] = !same
			}
			if !o.ReadsFlags {
				p := s.Clone()
				p.FlagZ, p.FlagL = !s.FlagZ, !s.FlagL
				got := stepped(t, in, p)
				want := after.Clone()
				if !o.WritesFlags {
					want.FlagZ, want.FlagL = p.FlagZ, p.FlagL
				}
				if !got.Equal(want) {
					t.Fatalf("%s: changing the unread flags changed the effect", Disassemble(in))
				}
			}
			d := opDefs[op]
			pos := [2]struct {
				f File
				r uint8
			}{{d.ra, in.Ra}, {d.rb, in.Rb}}
			for k, p := range pos {
				if p.f == NoFile || pos[1-k] == p {
					continue
				}
				if p.f == IntFile && changedR[p.r] || p.f == FPFile && changedF[p.r] {
					matters[k] = true
				}
			}
		}
		// Every operand position the signature declares as a read must
		// have mattered in some state.
		d := opDefs[op]
		for k, f := range []File{d.ra, d.rb} {
			if f != NoFile && !matters[k] {
				t.Errorf("%s: the read in operand position %d never changed the effect", op, k)
			}
		}
	}
}
