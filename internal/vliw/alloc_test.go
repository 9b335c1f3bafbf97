package vliw

import (
	"testing"

	"repro/internal/isa"
)

// TestExecuteZeroAlloc pins the VLIW execution core as allocation-free:
// Execute commits molecule writes through a fixed-size buffer, so running
// a translation — including loads, stores, FP ops and a taken branch —
// must not touch the heap.
func TestExecuteZeroAlloc(t *testing.T) {
	arch := isa.NewState(8)
	st := NewState(arch)
	tr := &Translation{
		EntryPC: 0,
		FallPC:  9,
		Molecules: []Molecule{
			mol(isa.Instr{Op: isa.MovI, Rd: 1, Imm: 3}, isa.Instr{Op: isa.MovI, Rd: 2, Imm: 4}),
			mol(isa.Instr{Op: isa.Add, Rd: 3, Ra: 1, Rb: 2}, isa.Instr{Op: isa.St, Ra: 0, Rb: 3}),
			mol(isa.Instr{Op: isa.Ld, Rd: 4, Ra: 0}, isa.Instr{Op: isa.FMovI, Rd: 1, F: 2.0}),
			mol(isa.Instr{Op: isa.FMul, Rd: 2, Ra: 1, Rb: 1}, isa.Instr{Op: isa.CmpI, Ra: 4, Imm: 7}),
			mol(isa.Instr{Op: isa.Jz, Imm: 5}),
		},
		SrcInstrs: 8,
	}
	m := NewMachine(TM5600Timing())
	mustTime(t, m, tr)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Execute(tr, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Execute allocated %.1f times per run, want 0", allocs)
	}
}
