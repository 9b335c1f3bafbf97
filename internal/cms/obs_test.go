package cms

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// TestStatsCollect checks the obs view over a real run: the gathered
// counters must equal the Stats accessors, and cms.cycles.total must be
// the cycle count Run returned.
func TestStatsCollect(t *testing.T) {
	m := newTestMachine(4)
	tr := obs.NewTracer()
	m.Tracer = tr
	p := isa.MustAssemble(sumLoopSrc)
	st := isa.NewState(0)
	cycles, _, err := m.Run(p, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.NewSnapshot()
	snap.Gather(m)
	if got := snap.Counter("cms.cycles.total"); got != cycles {
		t.Fatalf("cms.cycles.total %d != run cycles %d", got, cycles)
	}
	stats := m.Stats()
	if got := snap.Counter("cms.translate.regions"); got != stats.Translations {
		t.Fatalf("translate.regions %d != %d", got, stats.Translations)
	}
	if got := snap.Counter("cms.runs"); got != 1 {
		t.Fatalf("cms.runs = %d", got)
	}
	// The hot loop translated, so the trace must carry translate spans
	// and the run's own span in the CMS cycle domain.
	if tr.Events() < 2 {
		t.Fatalf("trace events = %d, want run + translate spans", tr.Events())
	}
	// Delta semantics: a second machine's run accumulates into the same
	// snapshot.
	m2 := newTestMachine(4)
	st2 := isa.NewState(0)
	cycles2, _, err := m2.Run(p, st2, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap.Gather(m2)
	if got := snap.Counter("cms.cycles.total"); got != cycles+cycles2 {
		t.Fatalf("accumulated cycles %d != %d", got, cycles+cycles2)
	}
	// The exported vocabulary, pinned: name, kind and unit of every
	// sample, in the snapshot's sorted order.
	want := []obs.Metric{
		{Name: "cms.cache.atoms", Kind: obs.KindGauge, Unit: "atoms"},
		{Name: "cms.cache.evictions", Kind: obs.KindCounter},
		{Name: "cms.chain.hits", Kind: obs.KindCounter},
		{Name: "cms.chain.misses", Kind: obs.KindCounter},
		{Name: "cms.chain.patches", Kind: obs.KindCounter},
		{Name: "cms.chain.unchains", Kind: obs.KindCounter},
		{Name: "cms.cycles.total", Kind: obs.KindCounter, Unit: "cycles"},
		{Name: "cms.dispatch.chained", Kind: obs.KindCounter},
		{Name: "cms.dispatch.cold", Kind: obs.KindCounter},
		{Name: "cms.dispatch.cycles", Kind: obs.KindCounter, Unit: "cycles"},
		{Name: "cms.interp.cycles", Kind: obs.KindCounter, Unit: "cycles"},
		{Name: "cms.interp.instrs", Kind: obs.KindCounter},
		{Name: "cms.native.atoms", Kind: obs.KindCounter},
		{Name: "cms.native.cycles", Kind: obs.KindCounter, Unit: "cycles"},
		{Name: "cms.native.executions", Kind: obs.KindCounter},
		{Name: "cms.native.molecules", Kind: obs.KindCounter},
		{Name: "cms.packing_density", Kind: obs.KindGauge, Unit: "atoms/molecule"},
		{Name: "cms.runs", Kind: obs.KindCounter},
		{Name: "cms.runs.warm", Kind: obs.KindCounter},
		{Name: "cms.translate.cycles", Kind: obs.KindCounter, Unit: "cycles"},
		{Name: "cms.translate.instrs", Kind: obs.KindCounter},
		{Name: "cms.translate.regions", Kind: obs.KindCounter},
	}
	got := snap.Samples()
	if len(got) != len(want) {
		t.Fatalf("Collect wrote %d samples, want %d", len(got), len(want))
	}
	for i, sm := range got {
		if sm.Metric != want[i] {
			t.Errorf("sample %d: got %+v, want %+v", i, sm.Metric, want[i])
		}
	}
}
