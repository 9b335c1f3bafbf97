package core

import "repro/internal/obs"

// Run is one instrumented experiment session: a Snapshot accumulating
// every table's metrics and an optional Tracer recording phase spans.
// The TableN methods record into both as they execute; a nil Tracer
// disables tracing (all tracer methods are nil-safe) and the Snapshot is
// always live. Drivers normally obtain a Run from Driver.Setup, which
// also stamps the meta and wires the -trace flag.
//
// The zero Run is not usable; construct with NewRun.
type Run struct {
	// Snap accumulates counters, timers and gauges from every
	// experiment executed on this Run.
	Snap *obs.Snapshot
	// Tracer, when non-nil, receives phase spans in the three time
	// domains (obs.PidHost, obs.PidCMS, obs.PidSim).
	Tracer *obs.Tracer
}

// NewRun returns a Run with a fresh snapshot and no tracer.
func NewRun() *Run {
	return &Run{Snap: obs.NewSnapshot()}
}

// gather folds sources into the run's snapshot, skipping nils.
func (r *Run) gather(srcs ...obs.Source) {
	r.Snap.Gather(srcs...)
}
