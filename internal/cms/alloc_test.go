package cms

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vliw"
)

// TestWarmRunZeroAlloc pins the steady-state CMS hot path — cached
// lookup, native execution, trace accumulation and chained dispatch — as
// allocation-free once the cache is warm. This is the host-side cost model the paper's
// "simulate a bladed Beowulf on a laptop" pitch depends on: the inner
// loop must not churn the garbage collector.
func TestWarmRunZeroAlloc(t *testing.T) {
	// The subtest keeps the name it had when a tiered pipeline ran
	// beside the single translation gear.
	t.Run("single-gear", func(t *testing.T) {
		p := isa.MustAssemble(sumLoopSrc)
		params := DefaultParams()
		params.HotThreshold = 1
		m := NewMachine(params, vliw.TM5600Timing())
		st := isa.NewState(0)
		// Warm up: translate and patch chains.
		for i := 0; i < 3; i++ {
			*st = isa.State{}
			if _, _, err := m.Run(p, st, 0); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			*st = isa.State{}
			if _, _, err := m.Run(p, st, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm Run allocated %.1f times per run, want 0", allocs)
		}
	})
}
