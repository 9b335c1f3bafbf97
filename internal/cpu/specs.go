package cpu

// The processor zoo. Parameters come from published microarchitecture
// references for each core (issue width, window, FP latencies,
// divide/sqrt cost, branch penalty); they drive the trace-driven model in
// superscalar.go. Absolute Mflops will not match 2001 hardware exactly —
// the goal is the paper's relative shape (see EXPERIMENTS.md).

// PentiumIII500 models the 500-MHz Intel Pentium III (Katmai): 3-wide
// out-of-order x86 with a single x87 FP pipeline and long-latency
// fdiv/fsqrt.
func PentiumIII500() *Arch {
	return &Arch{
		Name:     "500-MHz Intel Pentium III",
		ClockMHz: 500,
		// The P6 decoders sustain about two simple x86 instructions per
		// cycle on loopy FP code.
		IssueWidth: 2,
		// Modest effective window: the x87 stack discipline (fxch traffic)
		// limits how far the P6 core reorders these kernels in practice.
		Window: 28,
		IntALU: UnitSpec{Count: 2, Latency: 1, RecipThroughput: 1},
		IntMul: UnitSpec{Count: 1, Latency: 4, RecipThroughput: 1},
		Mem:    UnitSpec{Count: 1, Latency: 3, RecipThroughput: 1},
		FPAdd:  UnitSpec{Count: 1, Latency: 3, RecipThroughput: 1},
		FPMul:  UnitSpec{Count: 1, Latency: 5, RecipThroughput: 2},
		FPDiv:  UnitSpec{Count: 1, Latency: 32, RecipThroughput: 32},
		FPSqrt: UnitSpec{Count: 1, Latency: 36, RecipThroughput: 36},

		LoadMissRate:      0.02,
		LoadMissPenalty:   40,
		MispredictPenalty: 11,
		PredictAccuracy:   0.92,
	}
}

// AlphaEV56_533 models the 533-MHz Compaq/DEC Alpha 21164A: 4-wide but
// strictly in-order, two FP pipes, non-pipelined divide, and — as the
// paper notes matters for N-body codes — square root performed in
// software.
func AlphaEV56_533() *Arch {
	return &Arch{
		Name:       "533-MHz Compaq Alpha EV56",
		ClockMHz:   533,
		IssueWidth: 4,
		// The 21164 is in-order, but DEC's scheduling compiler software-
		// pipelines these kernels; a small reorder window is the standard
		// trace-model stand-in for that.
		Window: 14,
		IntALU: UnitSpec{Count: 2, Latency: 1, RecipThroughput: 1},
		IntMul: UnitSpec{Count: 1, Latency: 8, RecipThroughput: 4},
		Mem:    UnitSpec{Count: 2, Latency: 2, RecipThroughput: 1},
		FPAdd:  UnitSpec{Count: 1, Latency: 4, RecipThroughput: 1},
		FPMul:  UnitSpec{Count: 1, Latency: 4, RecipThroughput: 1},
		FPDiv:  UnitSpec{Count: 1, Latency: 31, RecipThroughput: 31},
		FPSqrt: UnitSpec{Count: 1, Latency: 70, RecipThroughput: 70}, // software

		LoadMissRate:      0.03,
		LoadMissPenalty:   30,
		MispredictPenalty: 5,
		PredictAccuracy:   0.85,
	}
}

// Power3_375 models the 375-MHz IBM Power3-II: aggressive 4-wide
// out-of-order core with two fused-multiply-add FPUs, fast hardware sqrt,
// and a strong memory system — the paper's FP heavyweight.
func Power3_375() *Arch {
	return &Arch{
		Name:     "375-MHz IBM Power3",
		ClockMHz: 375,
		// Peak dispatch is 8 instructions; 6 is the effective width on
		// FP-dense loops.
		IssueWidth: 6,
		Window:     96,
		IntALU:     UnitSpec{Count: 3, Latency: 1, RecipThroughput: 1},
		IntMul:     UnitSpec{Count: 1, Latency: 3, RecipThroughput: 1},
		// 128-byte lines and deep prefetch give very low effective load
		// latency on strided grid code.
		Mem: UnitSpec{Count: 2, Latency: 1.5, RecipThroughput: 1},
		// The two FPUs execute fused multiply–adds: each retires two of
		// the mix's flops per cycle, modelled as a half-cycle reciprocal
		// throughput.
		FPAdd:  UnitSpec{Count: 2, Latency: 3, RecipThroughput: 0.5},
		FPMul:  UnitSpec{Count: 2, Latency: 3, RecipThroughput: 0.5},
		FPDiv:  UnitSpec{Count: 1, Latency: 18, RecipThroughput: 16},
		FPSqrt: UnitSpec{Count: 1, Latency: 22, RecipThroughput: 22},

		LoadMissRate:      0.01,
		LoadMissPenalty:   35,
		MispredictPenalty: 8,
		PredictAccuracy:   0.92,
		// 8 MB of off-chip L2: Class-W arrays stay largely resident.
		MissScale: 0.3,
	}
}

// AthlonMP1200 models the 1200-MHz AMD Athlon MP: 3-wide out-of-order
// with fully pipelined separate FADD/FMUL units and a high clock.
func AthlonMP1200() *Arch {
	return &Arch{
		Name:       "1200-MHz AMD Athlon MP",
		ClockMHz:   1200,
		IssueWidth: 3,
		// As for the P6, the x87 register stack limits effective reorder
		// depth well below the K7's physical ROB.
		Window: 16,
		IntALU: UnitSpec{Count: 3, Latency: 1, RecipThroughput: 1},
		IntMul: UnitSpec{Count: 1, Latency: 4, RecipThroughput: 2},
		Mem:    UnitSpec{Count: 2, Latency: 3, RecipThroughput: 1},
		// Latencies include the x87 stack-shuffle overhead around each op.
		FPAdd:  UnitSpec{Count: 1, Latency: 6, RecipThroughput: 1},
		FPMul:  UnitSpec{Count: 1, Latency: 6, RecipThroughput: 1},
		FPDiv:  UnitSpec{Count: 1, Latency: 24, RecipThroughput: 20},
		FPSqrt: UnitSpec{Count: 1, Latency: 35, RecipThroughput: 30},

		LoadMissRate:      0.02,
		LoadMissPenalty:   80,
		MispredictPenalty: 10,
		PredictAccuracy:   0.94,
		// 256 KB L2 behind a shared MP front-side bus.
		MissScale: 1.3,
	}
}

// --- Historical processors for the treecode table (Table 4). ---

// PentiumPro200 models the 200-MHz Pentium Pro of Loki, Hyglac, Naegling
// and the original ASCI Red.
func PentiumPro200() *Arch {
	a := PentiumIII500()
	a.Name = "200-MHz Intel Pentium Pro"
	a.ClockMHz = 200
	a.LoadMissPenalty = 25
	a.PredictAccuracy = 0.90
	// The PPro's on-package full-speed 256 KB L2 was ahead of its time.
	a.MissScale = 0.7
	a.FPMul.RecipThroughput = 1.5
	return a
}

// PentiumII333 models the 333-MHz Pentium II Xeon of the upgraded
// ASCI Red.
func PentiumII333() *Arch {
	a := PentiumIII500()
	a.Name = "333-MHz Intel Pentium II"
	a.ClockMHz = 333
	return a
}

// R10000_250 models the 250-MHz MIPS R10000 of the SGI Origin 2000.
func R10000_250() *Arch {
	return &Arch{
		Name:     "250-MHz MIPS R10000",
		ClockMHz: 250,
		// Four-wide fetch feeding five execution pipelines; 5 is the
		// effective width on FP-dense loops.
		IssueWidth: 5,
		Window:     48,
		IntALU:     UnitSpec{Count: 2, Latency: 1, RecipThroughput: 1},
		IntMul:     UnitSpec{Count: 1, Latency: 6, RecipThroughput: 6},
		Mem:        UnitSpec{Count: 1, Latency: 1.5, RecipThroughput: 1},
		// MIPS IV fused multiply–add: two mix flops per unit-cycle.
		FPAdd: UnitSpec{Count: 1, Latency: 2, RecipThroughput: 0.5},
		FPMul: UnitSpec{Count: 1, Latency: 2, RecipThroughput: 0.5},
		FPDiv: UnitSpec{Count: 1, Latency: 19, RecipThroughput: 19},
		// MIPS IV's rsqrt estimate + one Newton step, software-pipelined.
		FPSqrt: UnitSpec{Count: 1, Latency: 30, RecipThroughput: 12},

		LoadMissRate:      0.015,
		LoadMissPenalty:   30,
		MispredictPenalty: 8,
		PredictAccuracy:   0.90,
		// 4 MB of board L2 per processor.
		MissScale: 0.3,
	}
}

// Power2_66 models the 66-MHz Power2 (P2SC) of the NAS IBM SP-2, with its
// two FMA pipes.
func Power2_66() *Arch {
	return &Arch{
		Name:       "66-MHz IBM Power2",
		ClockMHz:   66,
		IssueWidth: 4,
		Window:     16,
		IntALU:     UnitSpec{Count: 2, Latency: 1, RecipThroughput: 1},
		IntMul:     UnitSpec{Count: 1, Latency: 5, RecipThroughput: 2},
		Mem:        UnitSpec{Count: 2, Latency: 2, RecipThroughput: 1},
		FPAdd:      UnitSpec{Count: 2, Latency: 2, RecipThroughput: 1},
		FPMul:      UnitSpec{Count: 2, Latency: 2, RecipThroughput: 1},
		FPDiv:      UnitSpec{Count: 1, Latency: 17, RecipThroughput: 17},
		FPSqrt:     UnitSpec{Count: 1, Latency: 25, RecipThroughput: 25},

		LoadMissRate:      0.01,
		LoadMissPenalty:   20,
		MispredictPenalty: 4,
		PredictAccuracy:   0.88,
	}
}

// Alpha21064_150 models the 150-MHz Alpha 21064 of the JPL Cray T3D:
// 2-wide in-order, software square root.
func Alpha21064_150() *Arch {
	return &Arch{
		Name:       "150-MHz DEC Alpha 21064",
		ClockMHz:   150,
		IssueWidth: 2,
		InOrder:    true,
		IntALU:     UnitSpec{Count: 1, Latency: 1, RecipThroughput: 1},
		IntMul:     UnitSpec{Count: 1, Latency: 12, RecipThroughput: 8},
		Mem:        UnitSpec{Count: 1, Latency: 3, RecipThroughput: 1},
		FPAdd:      UnitSpec{Count: 1, Latency: 6, RecipThroughput: 1},
		FPMul:      UnitSpec{Count: 1, Latency: 6, RecipThroughput: 1},
		FPDiv:      UnitSpec{Count: 1, Latency: 34, RecipThroughput: 34},
		FPSqrt:     UnitSpec{Count: 1, Latency: 75, RecipThroughput: 75}, // software

		LoadMissRate:      0.03,
		LoadMissPenalty:   25,
		MispredictPenalty: 4,
		PredictAccuracy:   0.80,
	}
}

// SuperSPARC40 models the 40-MHz SuperSPARC node of the NRL TMC CM-5E
// (scalar units only; the vector units the treecode did not use).
func SuperSPARC40() *Arch {
	return &Arch{
		Name:       "40-MHz SuperSPARC (CM-5E)",
		ClockMHz:   40,
		IssueWidth: 3,
		InOrder:    true,
		IntALU:     UnitSpec{Count: 2, Latency: 1, RecipThroughput: 1},
		IntMul:     UnitSpec{Count: 1, Latency: 5, RecipThroughput: 3},
		Mem:        UnitSpec{Count: 1, Latency: 2, RecipThroughput: 1},
		FPAdd:      UnitSpec{Count: 1, Latency: 3, RecipThroughput: 1},
		FPMul:      UnitSpec{Count: 1, Latency: 3, RecipThroughput: 1},
		FPDiv:      UnitSpec{Count: 1, Latency: 9, RecipThroughput: 7},
		FPSqrt:     UnitSpec{Count: 1, Latency: 12, RecipThroughput: 10},

		LoadMissRate:      0.02,
		LoadMissPenalty:   15,
		MispredictPenalty: 3,
		PredictAccuracy:   0.80,
	}
}

// EvaluationCPUs returns the five processors of Table 1 in the paper's
// row order.
func EvaluationCPUs() []Processor {
	return []Processor{
		PentiumIII500().AsProcessor(),
		AlphaEV56_533().AsProcessor(),
		NewTM5600(),
		Power3_375().AsProcessor(),
		AthlonMP1200().AsProcessor(),
	}
}

// NASCPUs returns the four processors of Table 3 in the paper's column
// order (Athlon MP, Pentium 3, TM5600, Power3).
func NASCPUs() []Processor {
	return []Processor{
		AthlonMP1200().AsProcessor(),
		PentiumIII500().AsProcessor(),
		NewTM5600(),
		Power3_375().AsProcessor(),
	}
}
