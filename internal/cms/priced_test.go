package cms

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/vliw"
)

// pricedTimings differ from TM5600Timing, and from each other, in every
// field, so a term priced under the wrong Timing shows in some cycle
// count.
var pricedTimings = []vliw.Timing{
	{IntLatency: 2, MulLatency: 5, LoadLatency: 4, FPLatency: 3, FDivLatency: 31, FSqrtLatency: 17, BranchPenalty: 3},
	{IntLatency: 3, MulLatency: 2, LoadLatency: 1, FPLatency: 1, FDivLatency: 9, FSqrtLatency: 40, BranchPenalty: 0},
}

// fpMixSrc runs a loop with a multiply, a load, a divide and a square
// root in its body, interpreted until its head turns hot and translated
// after.
const fpMixSrc = `
	movi r1, 0
	movi r2, 3
	fmovi f1, 2.5
loop:
	addi r1, r1, 1
	mul  r3, r1, r2
	ld   r4, [r2]
	cvtif f2, r3
	fdiv f3, f2, f1
	fsqrt f4, f3
	fadd f0, f0, f4
	cmpi r1, 300
	jl   loop
	hlt
`

// pricedRun is one Run of a machine's sequence in
// TestPricedRunMatchesSeparateRuns; reset runs Reset first, and fault
// marks the run that must end in an error.
type pricedRun struct {
	name         string
	src          string
	memWords     int
	reset, fault bool
}

// TestPricedRunMatchesSeparateRuns: a machine that prices its runs under
// further Timings reports, for each, the cycles, every Stats field and
// the Trace of a separate machine timed under it, run for run: across
// evictions mid-run and a warm run after them, chained warm runs, a
// translated load fault, a Reset, and interpreted and translated
// multiplies, loads, divides and square roots. Its own Stats equal
// those of a machine that prices nothing.
func TestPricedRunMatchesSeparateRuns(t *testing.T) {
	evicting := DefaultParams()
	evicting.HotThreshold = 1
	evicting.CacheCapacityAtoms = 12
	eager := DefaultParams()
	eager.HotThreshold = 4
	cases := []struct {
		name   string
		params Params
		runs   []pricedRun
	}{
		{"evicting", evicting, []pricedRun{
			{"two-loop", twoLoopSrc, 0, false, false},
			{"two-loop, warm", twoLoopSrc, 0, false, false},
		}},
		{"chained", eager, []pricedRun{
			{"two-region loop", twoRegionLoopSrc, 0, false, false},
			{"two-region loop, warm", twoRegionLoopSrc, 0, false, false},
			{"translated load fault, warm", faultLoopSrc, 32, false, true},
			{"fp mix, reset", fpMixSrc, 8, true, false},
		}},
		{"default", DefaultParams(), []pricedRun{
			{"fp mix", fpMixSrc, 8, false, false},
			{"fp mix, warm", fpMixSrc, 8, false, false},
		}},
	}
	for _, c := range cases {
		priced := NewMachine(c.params, vliw.TM5600Timing(), pricedTimings...)
		own := NewMachine(c.params, vliw.TM5600Timing())
		sep := make([]*Machine, len(pricedTimings))
		for i, tm := range pricedTimings {
			sep[i] = NewMachine(c.params, tm)
		}
		for _, r := range c.runs {
			p := isa.MustAssemble(r.src)
			run := func(m *Machine) (uint64, isa.Trace, string) {
				if r.reset {
					m.Reset()
				}
				cycles, tr, err := m.Run(p, isa.NewState(r.memWords), 0)
				if err != nil {
					return cycles, tr, err.Error()
				}
				return cycles, tr, ""
			}
			cycles, tr, err := run(priced)
			if r.fault != (err != "") || priced.Stats().NativeExecutions == 0 {
				t.Fatalf("%s/%s: err %q after %d native executions", c.name, r.name, err, priced.Stats().NativeExecutions)
			}
			if wc, wtr, werr := run(own); cycles != wc || tr != wtr || err != werr || priced.Stats() != own.Stats() {
				t.Fatalf("%s/%s: priced machine's own run\n%d %+v %q %+v\nwant\n%d %+v %q %+v", c.name, r.name,
					cycles, tr, err, priced.Stats(), wc, wtr, werr, own.Stats())
			}
			for i, m := range sep {
				wc, wtr, werr := run(m)
				got := priced.StatsUnder(i)
				if got != m.Stats() || got.TotalCycles() != wc || tr != wtr || err != werr {
					t.Fatalf("%s/%s under %+v: priced\n%+v %+v %q\nseparate\n%+v %+v %q", c.name, r.name,
						pricedTimings[i], got, tr, err, m.Stats(), wtr, werr)
				}
				if got.TotalCycles() == cycles {
					t.Fatalf("%s/%s under %+v: %d cycles, as under the machine's own Timing", c.name, r.name, pricedTimings[i], cycles)
				}
			}
		}
	}
}

// TestFuelLimitedRunRefusesPricing: the budget stops a run at a cycle
// count of the machine's own Timing, so a machine that prices further
// Timings refuses a fuel-limited run before it counts or runs anything,
// and still runs an unlimited one.
func TestFuelLimitedRunRefusesPricing(t *testing.T) {
	m := NewMachine(DefaultParams(), vliw.TM5600Timing(), pricedTimings[0])
	st := isa.NewState(0)
	cycles, tr, err := m.Run(isa.MustAssemble(spinSrc), st, 50_000)
	if !errors.Is(err, ErrFuelPriced) {
		t.Fatalf("err = %v, want ErrFuelPriced", err)
	}
	if cycles != 0 || tr != (isa.Trace{}) || m.Stats() != (Stats{}) || st.PC != 0 {
		t.Fatalf("refused run counted: %d cycles, %+v, %+v, pc %d", cycles, tr, m.Stats(), st.PC)
	}
	if _, _, err := m.Run(isa.MustAssemble(twoLoopSrc), isa.NewState(0), 0); err != nil {
		t.Fatal(err)
	}
}
