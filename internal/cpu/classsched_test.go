package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// mapSched is the pipelined booking as first written, over a map of
// per-cycle issue counts: the reference the live-bin slice must match.
type mapSched struct {
	bins       map[int64]int
	perCycle   int
	minLiveBin int64
	prunes     int
}

func (c *mapSched) acquire(t float64) float64 {
	bin := int64(math.Floor(t))
	at := t
	for c.bins[bin] >= c.perCycle {
		bin++
		at = float64(bin)
	}
	c.bins[bin]++
	if len(c.bins) > 8192 {
		c.prunes++
		for b := range c.bins {
			if b < c.minLiveBin || b < bin-4096 {
				delete(c.bins, b)
			}
		}
	}
	if bin > c.minLiveBin {
		c.minLiveBin = bin - 4096
	}
	return at
}

// TestBookingMatchesMapReference replays seeded booking streams through
// classSched and the map reference and requires bit-identical issue
// times and equal live-bin counts at every step. The streams run past
// the prune trigger, jump back more than pruneDepth cycles so that
// dropped bins are booked again, and mix in fractional and repeated
// times.
func TestBookingMatchesMapReference(t *testing.T) {
	streams := map[string]func(r *rand.Rand, clock float64, per int) float64{
		// Mostly forward with jitter, like a scoreboard's ready times.
		"forward": func(r *rand.Rand, clock float64, _ int) float64 {
			return clock + r.Float64()*40 - 8
		},
		// Sparse: one booking every eight cycles keeps thousands of
		// old bins live until the prune fires.
		"sparse": func(r *rand.Rand, clock float64, _ int) float64 {
			return clock*8 + r.Float64()*3
		},
		// Forward, but now and then back by 4097–20000 cycles, into bins
		// an earlier prune dropped.
		"jump-back": func(r *rand.Rand, clock float64, _ int) float64 {
			if r.Intn(64) == 0 {
				return clock - 4097 - r.Float64()*16000
			}
			return clock + r.Float64()*6
		},
		// Whole cycles only, as many bookings per cycle as the unit
		// issues, so full bins push bookings later.
		"crowded": func(r *rand.Rand, clock float64, per int) float64 {
			return math.Floor(clock/float64(per)) + float64(r.Intn(3))
		},
	}
	for name, next := range streams {
		for _, per := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/per%d", name, per), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(per)))
				got := newClassSched(&UnitSpec{Count: per, Latency: 1, RecipThroughput: 1})
				ref := &mapSched{bins: map[int64]int{}, perCycle: per}
				booked := map[int64]bool{}
				rebooked := 0
				for i := 0; i < 60000; i++ {
					at := next(r, float64(i), per)
					bin := int64(math.Floor(at))
					_, live := ref.bins[bin]
					wantT := ref.acquire(at)
					gotT := got.acquire(at)
					if math.Float64bits(gotT) != math.Float64bits(wantT) {
						t.Fatalf("booking %d at %v: issue %v, reference %v", i, at, gotT, wantT)
					}
					if len(got.bins) != len(ref.bins) {
						t.Fatalf("booking %d: %d live bins, reference %d", i, len(got.bins), len(ref.bins))
					}
					if booked[bin] && !live {
						rebooked++
					}
					booked[int64(math.Floor(wantT))] = true
				}
				if ref.prunes == 0 {
					t.Error("the prune never fired")
				}
				if name == "jump-back" && rebooked == 0 {
					t.Error("no dropped bin was booked again")
				}
			})
		}
	}
}

// loopProgram is a counted loop of integer, FP add, FP multiply, load
// and branch work, iters times.
func loopProgram(iters int) isa.Program {
	return isa.MustAssemble(fmt.Sprintf(`
		movi r1, 0
		movi r2, 1
		movi r3, %d
		fmovi f0, 1.5
	loop:
		add  r1, r1, r2
		fadd f1, f0, f0
		fmul f2, f1, f0
		fld  f3, [r0+0]
		cmp  r1, r3
		jl   loop
		hlt
	`, iters))
}

// TestRunAllocsIndependentOfLength pins that a timed run allocates per
// program and per core, never per executed instruction: a 100k-iteration
// loop allocates exactly what a 1k-iteration one does, on an
// out-of-order and an in-order core.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	for _, a := range []*Arch{PentiumIII500(), Alpha21064_150()} {
		allocs := func(iters int) float64 {
			p := loopProgram(iters)
			return testing.AllocsPerRun(3, func() {
				if _, err := a.Run(p, isa.NewState(1), 0); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(1000), allocs(100000)
		if short != long {
			t.Errorf("%s: %v allocations for 1k iterations, %v for 100k", a.Name, short, long)
		}
	}
}
