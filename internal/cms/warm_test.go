package cms

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/vliw"
)

// TestRunCountersDistinguishWarmRuns asserts Stats counts runs and which
// of them started with a warm (non-empty) translation cache — the
// visibility hook for cpu.Crusoe's opt-in warm-start mode.
func TestRunCountersDistinguishWarmRuns(t *testing.T) {
	p := isa.MustAssemble(sumLoopSrc)
	m := newTestMachine(4) // hot enough to translate the loop on run 1
	for run := 1; run <= 3; run++ {
		st := isa.NewState(0)
		if _, _, err := m.Run(p, st, 0); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	s := m.Stats()
	if s.Runs != 3 {
		t.Fatalf("Runs = %d, want 3", s.Runs)
	}
	if s.WarmRuns != 2 {
		t.Fatalf("WarmRuns = %d, want 2 (first run is cold)", s.WarmRuns)
	}
	if s.Translations == 0 {
		t.Fatal("expected the loop to be translated")
	}
	m.Reset()
	if s := m.Stats(); s.Runs != 0 || s.WarmRuns != 0 {
		t.Fatalf("Reset should zero run counters: %+v", s)
	}
}

// TestWarmRunRejectsStaleTiming: translations are timed once, under the
// machine's Timing when they are made. A warm run after that Timing
// changed must fail rather than report the old timing; after Reset the
// new Timing times fresh translations.
func TestWarmRunRejectsStaleTiming(t *testing.T) {
	p := isa.MustAssemble(sumLoopSrc)
	m := newTestMachine(1)
	if _, _, err := m.Run(p, isa.NewState(0), 0); err != nil {
		t.Fatal(err)
	}
	m.VLIW.T.LoadLatency++
	if _, _, err := m.Run(p, isa.NewState(0), 0); !errors.Is(err, vliw.ErrTiming) {
		t.Fatalf("warm run under a changed Timing: err = %v, want vliw.ErrTiming", err)
	}
	m.Reset()
	if _, _, err := m.Run(p, isa.NewState(0), 0); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
}
