// Package cpu provides timing models for the commodity processors the
// paper benchmarks against the Transmeta TM5600: trace-driven superscalar
// models (used for the gravitational microkernel, Table 1) and a coarse
// op-mix cost model calibrated from them (used for the NAS and treecode
// workloads, Tables 2–4). The TM5600 itself is modelled by the full
// CMS+VLIW simulation in internal/cms; this package wraps it behind the
// same interfaces.
package cpu

import (
	"errors"
	"fmt"

	"repro/internal/cms"
	"repro/internal/isa"
)

// UnitSpec describes one functional-unit pool of a superscalar core.
type UnitSpec struct {
	Count int // identical units in the pool
	// Latency is producer→consumer distance in cycles.
	Latency float64
	// RecipThroughput is the per-unit issue interval (1 = fully
	// pipelined; = Latency for blocking units like dividers).
	RecipThroughput float64
}

// Arch parameterizes a hardware superscalar core. The model is a one-pass
// scoreboard: with register renaming only true (RAW) dependences stall;
// in-order cores additionally issue in program order. It intentionally
// omits fetch alignment, TLBs, and replay traps — the paper's comparisons
// live at the level this captures (issue width, FP latencies, divide/sqrt
// cost, memory latency, branch penalty).
type Arch struct {
	Name     string
	ClockMHz float64

	IssueWidth int
	InOrder    bool
	// Window is the out-of-order instruction window (ROB) size; ignored
	// for in-order cores.
	Window int

	// Units per timing class group.
	IntALU UnitSpec
	IntMul UnitSpec
	Mem    UnitSpec // load/store ports; Latency applies to loads
	FPAdd  UnitSpec
	FPMul  UnitSpec
	FPDiv  UnitSpec
	FPSqrt UnitSpec

	// LoadMissRate is the expected fraction of loads missing the first-
	// level cache for the modelled working sets; LoadMissPenalty is the
	// extra latency applied (as an expected value).
	LoadMissRate    float64
	LoadMissPenalty float64

	// Branch handling: taken branches that mispredict cost
	// MispredictPenalty; PredictAccuracy is applied as an expectation.
	MispredictPenalty float64
	PredictAccuracy   float64

	// MissScale adjusts workload-supplied miss rates for this core's
	// cache hierarchy (an 8 MB L2 sees far fewer Class-W misses than a
	// 256 KB one). Zero means 1.
	MissScale float64
}

// Validate sanity-checks the parameters.
func (a *Arch) Validate() error {
	if a.ClockMHz <= 0 {
		return fmt.Errorf("cpu: %s: non-positive clock", a.Name)
	}
	if a.IssueWidth <= 0 {
		return fmt.Errorf("cpu: %s: non-positive issue width", a.Name)
	}
	if !a.InOrder && a.Window <= 0 {
		return fmt.Errorf("cpu: %s: out-of-order core needs a window", a.Name)
	}
	for _, u := range []UnitSpec{a.IntALU, a.IntMul, a.Mem, a.FPAdd, a.FPMul, a.FPDiv, a.FPSqrt} {
		if u.Count <= 0 || u.Latency <= 0 || u.RecipThroughput <= 0 {
			return fmt.Errorf("cpu: %s: unit spec must be positive: %+v", a.Name, u)
		}
	}
	if a.PredictAccuracy < 0 || a.PredictAccuracy > 1 {
		return fmt.Errorf("cpu: %s: predict accuracy out of [0,1]", a.Name)
	}
	if a.LoadMissRate < 0 || a.LoadMissRate > 1 {
		return fmt.Errorf("cpu: %s: load miss rate out of [0,1]", a.Name)
	}
	return nil
}

func (a *Arch) unitFor(c isa.Class) *UnitSpec {
	switch c {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassBranch:
		return &a.IntALU
	case isa.ClassIntMul:
		return &a.IntMul
	case isa.ClassLoad, isa.ClassStore:
		return &a.Mem
	case isa.ClassFPAdd:
		return &a.FPAdd
	case isa.ClassFPMul:
		return &a.FPMul
	case isa.ClassFPDiv:
		return &a.FPDiv
	case isa.ClassFPSqrt:
		return &a.FPSqrt
	}
	return &a.IntALU
}

// RunResult reports a timed execution.
type RunResult struct {
	Cycles  float64
	Seconds float64
	Trace   isa.Trace
	// CMS carries the CMS statistics of the run when the processor was a
	// Crusoe (nil for hardware superscalar models). Cold-start runs
	// report the run's own stats; warm-start runs report the persistent
	// machine's accumulated stats. cms.Stats implements obs.Source, so a
	// driver can gather this directly into its snapshot.
	CMS *cms.Stats
}

// Mflops returns the achieved floating-point rate.
func (r RunResult) Mflops() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Trace.Flops) / r.Seconds / 1e6
}

// ErrFuel mirrors isa.ErrFuel for timed runs.
var ErrFuel = errors.New("cpu: instruction budget exhausted")

// simState is the per-run scoreboard. The front end dispatches in program
// order at IssueWidth instructions per cycle into the out-of-order window;
// execution starts when operands and a functional unit are available
// (register renaming removes WAR/WAW stalls); the ROB-full condition
// blocks dispatch when the instruction Window instructions older has not
// completed. In-order cores additionally start execution in program order.
type simState struct {
	arch *Arch
	// Completion cycle per register (RAW only; renaming removes WAR/WAW).
	readyR     [isa.NumRegs]float64
	readyF     [isa.NumRegs]float64
	readyFlags float64
	// Per-class unit schedules: classes that share a UnitSpec (IntALU,
	// Nop, Branch) still book separately.
	sched [isa.NumClasses]*classSched
	// Front-end dispatch clock (advances dispatchStep = 1/IssueWidth per
	// instruction).
	dispatch, dispatchStep float64
	// Most recent execution-start cycle (in-order issue constraint).
	lastIssue float64
	// Ring of completion times for the window (ROB) constraint.
	ring    []float64
	ringPos int
	cycles  float64
}

// Run executes the program with isa semantics while timing each dynamic
// instruction through the core model. fuel of 0 means unlimited.
func (a *Arch) Run(p isa.Program, st *isa.State, fuel uint64) (RunResult, error) {
	var res RunResult
	if err := a.Validate(); err != nil {
		return res, err
	}
	if err := p.Validate(); err != nil {
		return res, err
	}
	ss := &simState{arch: a, dispatchStep: 1 / float64(a.IssueWidth)}
	if !a.InOrder {
		ss.ring = make([]float64, a.Window)
	}
	shapes := ss.decode(p)
	executed := uint64(0)
	for !st.Halted {
		if fuel > 0 && executed >= fuel {
			return res, ErrFuel
		}
		if st.PC < 0 || st.PC >= len(p) {
			return res, fmt.Errorf("cpu: PC %d out of range", st.PC)
		}
		sh := &shapes[st.PC]
		takenBefore := res.Trace.Taken
		if err := isa.Step(p, st, &res.Trace); err != nil {
			return res, err
		}
		taken := res.Trace.Taken != takenBefore
		ss.time(sh, taken)
		executed++
	}
	res.Cycles = ss.cycles
	res.Seconds = res.Cycles / (a.ClockMHz * 1e6)
	return res, nil
}

// shape is what the scoreboard needs of one static instruction.
type shape struct {
	ops   isa.Operands
	sched *classSched
	// lat is the unit latency, plus the expected miss penalty for loads.
	lat float64
}

// decode computes every static instruction's shape once per run, and
// creates the unit schedule of each class the program uses.
func (s *simState) decode(p isa.Program) []shape {
	a := s.arch
	shapes := make([]shape, len(p))
	for i, in := range p {
		c := isa.ClassOf(in.Op)
		u := a.unitFor(c)
		if s.sched[c] == nil {
			s.sched[c] = newClassSched(u)
		}
		lat := u.Latency
		if c == isa.ClassLoad {
			lat += a.LoadMissRate * a.LoadMissPenalty
		}
		shapes[i] = shape{ops: in.Operands(), sched: s.sched[c], lat: lat}
	}
	return shapes
}

// time advances the scoreboard for one dynamic instruction and returns
// the execution-start cycle (useful for tests and debugging).
func (s *simState) time(sh *shape, taken bool) float64 {
	a := s.arch

	// Front end: in-order dispatch at IssueWidth/cycle, blocked while the
	// window is full (the instruction Window slots older must complete
	// before this one can enter).
	d := s.dispatch
	if !a.InOrder {
		if oldest := s.ring[s.ringPos]; oldest > d {
			d = oldest
		}
	}
	s.dispatch = d + s.dispatchStep

	// Execution start: dispatched, operands ready, unit free.
	t := d
	o := &sh.ops
	for _, r := range o.Ints[:o.NInt] {
		if s.readyR[r] > t {
			t = s.readyR[r]
		}
	}
	for _, r := range o.FPs[:o.NFP] {
		if s.readyF[r] > t {
			t = s.readyF[r]
		}
	}
	if o.ReadsFlags && s.readyFlags > t {
		t = s.readyFlags
	}
	if a.InOrder && s.lastIssue > t {
		t = s.lastIssue
	}

	// Functional-unit availability.
	t = sh.sched.acquire(t)
	s.lastIssue = t

	// Completion.
	done := t + sh.lat
	switch o.Dst {
	case isa.IntFile:
		s.readyR[o.Rd] = done
	case isa.FPFile:
		s.readyF[o.Rd] = done
	}
	if o.WritesFlags {
		s.readyFlags = done
	}
	if !a.InOrder {
		s.ring[s.ringPos] = done
		if s.ringPos++; s.ringPos == len(s.ring) {
			s.ringPos = 0
		}
	}

	// Branch handling: a mispredicted taken branch stalls the front end
	// from the branch's resolution; applied as an expected value.
	if taken {
		stall := (1 - a.PredictAccuracy) * a.MispredictPenalty
		s.dispatch += stall
	}
	if done > s.cycles {
		s.cycles = done
	}
	if t+1 > s.cycles {
		s.cycles = t + 1
	}
	return t
}
