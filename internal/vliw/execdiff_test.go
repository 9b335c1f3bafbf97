package vliw_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cms"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vliw"
)

// diffProgram is one program of the differential corpus with its
// initial state.
type diffProgram struct {
	name string
	p    isa.Program
	st   *isa.State
}

// diffCorpus is every calibration kernel, the GravMicro Math and Karp
// kernels, and random programs built by the recipe of cms's
// TestEquivalenceRandomPrograms (straight-line int, FP and memory
// traffic in a counted loop).
func diffCorpus(t *testing.T) []diffProgram {
	var out []diffProgram
	for _, k := range kernels.CalibKernels() {
		p, st, err := k.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffProgram{"calib/" + k.Name, p, st})
	}
	for _, v := range []kernels.GravVariant{kernels.GravMath, kernels.GravKarp} {
		g := kernels.GravMicro{Variant: v, NBodies: 3, Iters: 2, TableBits: 7, ChebDeg: 2, NRIters: 2, Seed: 3}
		p, st, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffProgram{"grav/" + v.String(), p, st})
	}
	rng := rand.New(rand.NewSource(12345))
	intOps := []string{"add", "sub", "mul", "and", "or", "xor"}
	fpOps := []string{"fadd", "fsub", "fmul"}
	for trial := 0; trial < 60; trial++ {
		var b strings.Builder
		b.WriteString("movi r15, 0\nmovi r14, 5\n")
		b.WriteString("movi r1, 3\nmovi r2, -7\nmovi r3, 11\nfmovi f1, 1.5\nfmovi f2, -0.25\nfmovi f3, 3.0\n")
		b.WriteString("top:\n")
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				fmt.Fprintf(&b, "%s r%d, r%d, r%d\n", intOps[rng.Intn(len(intOps))], 1+rng.Intn(10), 1+rng.Intn(12), 1+rng.Intn(12))
			case 2, 3:
				fmt.Fprintf(&b, "%s f%d, f%d, f%d\n", fpOps[rng.Intn(len(fpOps))], 1+rng.Intn(10), 1+rng.Intn(12), 1+rng.Intn(12))
			case 4:
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&b, "st [r0+%d], r%d\n", rng.Intn(8), 1+rng.Intn(12))
				} else {
					fmt.Fprintf(&b, "ld r%d, [r0+%d]\n", 1+rng.Intn(10), rng.Intn(8))
				}
			}
		}
		b.WriteString("addi r15, r15, 1\ncmp r15, r14\njl top\nhlt\n")
		p, err := isa.Assemble(b.String())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffProgram{fmt.Sprintf("random/%d", trial), p, isa.NewState(8)})
	}
	return out
}

// visitStates runs p from st on the reference interpreter and returns,
// for each PC reached, the state at its first and at its last visit,
// so a loop's exit branch is seen both taken and not taken.
func visitStates(t *testing.T, p isa.Program, st *isa.State) map[int][]*isa.State {
	const maxSteps = 1 << 20
	lastVisit := map[int]int{}
	s := st.Clone()
	for step := 0; !s.Halted; step++ {
		if step == maxSteps {
			t.Fatal("program did not halt")
		}
		lastVisit[s.PC] = step
		if err := isa.Step(p, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	out := map[int][]*isa.State{}
	s = st.Clone()
	for step := 0; !s.Halted; step++ {
		if len(out[s.PC]) == 0 || lastVisit[s.PC] == step {
			out[s.PC] = append(out[s.PC], s.Clone())
		}
		if err := isa.Step(p, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// regionTranslations is every translation cms can make of p with tx:
// a region at the entry, at each branch's target and fallthrough, and at
// the fallthrough PC of each region that stops at MaxRegion.
func regionTranslations(t *testing.T, p isa.Program, tx *cms.Translator) []*vliw.Translation {
	seen := map[int]bool{}
	var heads []int
	add := func(pc int) {
		if pc >= 0 && pc < len(p) && !seen[pc] {
			seen[pc] = true
			heads = append(heads, pc)
		}
	}
	add(0)
	for pc, in := range p {
		if isa.IsBranch(in.Op) {
			add(int(in.Imm))
			add(pc + 1)
		}
	}
	var out []*vliw.Translation
	for i := 0; i < len(heads); i++ {
		tr, err := tx.Translate(p, heads[i])
		if err != nil {
			t.Fatalf("pc %d: %v", heads[i], err)
		}
		add(tr.FallPC)
		out = append(out, tr)
	}
	return out
}

// withExit returns a copy of tr without its branches that leaves at
// molecule k: through exit, placed last in molecule k (replacing the
// molecule's last atom when it is full), or, when exit is nil, by
// falling through after molecule k.
func withExit(tr *vliw.Translation, k int, exit *isa.Instr) *vliw.Translation {
	v := &vliw.Translation{EntryPC: tr.EntryPC, SrcInstrs: tr.SrcInstrs, FallPC: tr.FallPC}
	n := len(tr.Molecules)
	if exit == nil {
		n = k + 1
	}
	for j, m := range tr.Molecules[:n] {
		var atoms []isa.Instr
		for _, a := range m.Atoms {
			if !isa.IsBranch(a.Op) {
				atoms = append(atoms, a)
			}
		}
		if j == k && exit != nil {
			if len(atoms) == m.Slots() {
				atoms = atoms[:len(atoms)-1]
			}
			atoms = append(atoms, *exit)
		}
		if len(atoms) == 0 {
			atoms = []isa.Instr{{Op: isa.Nop}}
		}
		v.Molecules = append(v.Molecules, vliw.Molecule{Atoms: atoms, Wide: m.Wide})
	}
	return v
}

// exitVariants is tr itself, whose exits depend on data, and for every
// molecule k a taken side exit, a halt and a fallthrough at k.
func exitVariants(tr *vliw.Translation) []*vliw.Translation {
	out := []*vliw.Translation{tr}
	side := isa.Instr{Op: isa.Jmp, Imm: int64(tr.EntryPC)}
	halt := isa.Instr{Op: isa.Jmp, Imm: vliw.HaltCode(tr.FallPC)}
	for k := range tr.Molecules {
		out = append(out, withExit(tr, k, &side), withExit(tr, k, &halt), withExit(tr, k, nil))
	}
	return out
}

// resetState makes dst a copy of src, reusing dst's memory.
func resetState(dst, src *isa.State) {
	mem := append(dst.Mem[:0], src.Mem...)
	*dst = *src
	dst.Mem = mem
}

// sameBits reports whether two float registers files agree bit for bit.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestExecuteMatchesReference holds Execute, which reports only the
// molecule it leaves at, to the scoreboard reference that recomputes
// timing and counts on every call. It covers every translation the cms
// translator makes for the corpus, in wide and narrow molecules,
// under the TM5600, the TM5800 and the TM5600 with a raised load
// latency, from the states each region head is reached in, and forces
// an exit at every molecule. Every field of what the exit is charged
// (the translation's Cycles and a Fold of that one exit), every error
// and the whole native state must agree; and one Fold of every exit
// counted per molecule must equal the sum of the reference's counts.
func TestExecuteMatchesReference(t *testing.T) {
	slowLoads := vliw.TM5600Timing()
	slowLoads.LoadLatency += 3
	timings := []vliw.Timing{vliw.TM5600Timing(), cpu.NewTM5800().Timing, slowLoads}
	var execs, faults int
	var ref, got isa.State
	for _, prog := range diffCorpus(t) {
		states := visitStates(t, prog.p, prog.st)
		for _, wide := range []bool{true, false} {
			tx := cms.NewTranslator()
			tx.Wide = wide
			for _, tr := range regionTranslations(t, prog.p, tx) {
				pc := tr.EntryPC
				sts := states[pc]
				if len(sts) == 0 {
					sts = []*isa.State{prog.st}
				}
				// The first state again without memory, so every load
				// and store faults.
				noMem := sts[0].Clone()
				noMem.Mem = nil
				sts = append(sts[:len(sts):len(sts)], noMem)
				for vi, v := range exitVariants(tr) {
					for ti, tm := range timings {
						m := vliw.NewMachine(tm)
						if err := m.Time(v); err != nil {
							t.Fatalf("%s pc %d variant %d: %v", prog.name, pc, vi, err)
						}
						exits := make([]uint64, len(v.Molecules))
						var sum vliw.Counts
						for si, s0 := range sts {
							label := func() string {
								return fmt.Sprintf("%s wide=%v pc %d variant %d timing %d state %d", prog.name, wide, pc, vi, ti, si)
							}
							resetState(&ref, s0)
							resetState(&got, s0)
							rst, gst := vliw.State{Arch: &ref}, vliw.State{Arch: &got}
							want, werr := vliw.ReferenceExecute(tm, v, &rst)
							res, gerr := vliw.ExecuteResult(m, v, &gst)
							if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
								t.Fatalf("%s: error %v, reference %v", label(), gerr, werr)
							}
							if res != want {
								t.Fatalf("%s: result\n%+v\nreference\n%+v", label(), res, want)
							}
							if !ref.Equal(&got) || rst.TmpR != gst.TmpR || !sameBits(rst.TmpF[:], gst.TmpF[:]) {
								t.Fatalf("%s: native state differs from the reference", label())
							}
							if want.Molecules > 0 {
								exits[want.Molecules-1]++
								sum.Atoms += want.Atoms
								sum.Molecules += want.Molecules
								sum.Flops += want.Flops
								for c, n := range want.ByClass {
									sum.ByClass[c] += n
								}
							}
							execs++
							if werr != nil {
								faults++
							}
						}
						var folded vliw.Counts
						v.Fold(exits, &folded)
						if folded != sum {
							t.Fatalf("%s wide=%v pc %d variant %d timing %d: fold of %v\n%+v\nreference sum\n%+v",
								prog.name, wide, pc, vi, ti, exits, folded, sum)
						}
					}
				}
			}
		}
	}
	t.Logf("%d executions compared, %d of them faulting", execs, faults)
}
