package treecode

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestTracedConcurrentForces exercises the per-worker interaction counts
// and the tracer's append path under a wide worker pool; with -race this
// is the proof that hot-loop instrumentation is race-free.
func TestTracedConcurrentForces(t *testing.T) {
	s := nbody.NewPlummer(8000, 1, 7)
	tr := obs.NewTracer()
	f := &Forcer{Theta: 0.7, Workers: 8, Tracer: tr}
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	if f.LastStats.Interactions() == 0 {
		t.Fatal("no interactions counted")
	}
	// One build span + one forces span per call.
	if got := tr.Events(); got != 2 {
		t.Fatalf("trace events = %d, want 2", got)
	}
	// Tracing must not perturb results: an untraced serial run matches.
	s2 := nbody.NewPlummer(8000, 1, 7)
	f2 := &Forcer{Theta: 0.7, Workers: 1}
	if err := f2.Forces(s2); err != nil {
		t.Fatal(err)
	}
	if f2.LastStats != f.LastStats {
		t.Fatalf("traced stats %+v differ from untraced %+v", f.LastStats, f2.LastStats)
	}
}

// TestTracedParallelForces runs the distributed computation with a
// tracer attached to the world: every rank goroutine appends spans
// concurrently (mpi sends in the fabric, treecode phases per rank).
func TestTracedParallelForces(t *testing.T) {
	s := nbody.NewPlummer(4000, 1, 11)
	w, err := mpi.NewWorld(8, netsim.FastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	w.Tracer = tr
	res, err := ParallelForces(w, s, ParallelConfig{Theta: 0.7, Eps: s.Eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Interactions() == 0 {
		t.Fatal("no interactions")
	}
	if tr.Events() == 0 {
		t.Fatal("no trace events from a traced parallel run")
	}
}

// TestForcerTotalCollectsAsDelta: a Forcer's running totals are
// gathered as Stats, with delta semantics like every other treecode
// source, so gathering after another experiment's counts adds to them.
func TestForcerTotalCollectsAsDelta(t *testing.T) {
	s := nbody.NewPlummer(2000, 1, 3)
	f := &Forcer{Theta: 0.7}
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Forces(s); err != nil {
		t.Fatal(err)
	}
	if f.Total.Interactions() != 2*f.LastStats.Interactions() {
		t.Fatalf("Total %d not twice LastStats %d", f.Total.Interactions(), f.LastStats.Interactions())
	}
	snap := obs.NewSnapshot()
	snap.Gather(f.Total)
	if got := snap.Counter("treecode.interactions"); got != f.Total.Interactions() {
		t.Fatalf("gathered %d, forcer total %d", got, f.Total.Interactions())
	}
	snap.Gather(f.LastStats)
	if got, want := snap.Counter("treecode.interactions"), f.Total.Interactions()+f.LastStats.Interactions(); got != want {
		t.Fatalf("second gather gave %d, want the sum %d", got, want)
	}
}

func TestParallelResultCollectDelta(t *testing.T) {
	s := nbody.NewPlummer(3000, 1, 5)
	w, err := mpi.NewWorld(4, netsim.FastEthernet())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ParallelForces(w, s, ParallelConfig{Theta: 0.7, Eps: s.Eps})
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.NewSnapshot()
	snap.Gather(res, w)
	if got := snap.Counter("treecode.interactions"); got != res.Stats.Interactions() {
		t.Fatalf("interactions %d != %d", got, res.Stats.Interactions())
	}
	if got := snap.Counter("mpi.bytes.total"); got != uint64(res.CommBytes) {
		t.Fatalf("mpi.bytes.total %d != CommBytes %d", got, res.CommBytes)
	}
	sm, ok := snap.Lookup("treecode.par.sim_time")
	if !ok || sm.Float != res.SimTime {
		t.Fatalf("sim_time gauge %v != %v", sm.Float, res.SimTime)
	}
	// Delta semantics: gathering a second result accumulates counters.
	snap.Gather(res)
	if got := snap.Counter("treecode.interactions"); got != 2*res.Stats.Interactions() {
		t.Fatalf("second gather did not accumulate: %d", got)
	}
	// Tree structure gauges.
	tree, err := Build(SourcesFromSystem(s), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap.Gather(tree)
	if sm, ok := snap.Lookup("treecode.tree.nodes"); !ok || sm.Float != float64(len(tree.Nodes)) {
		t.Fatal("tree node gauge missing or wrong")
	}
}
