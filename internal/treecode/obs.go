package treecode

import "repro/internal/obs"

// This file exports treecode telemetry through the unified obs layer:
// Stats, Tree and ParallelResult implement obs.Source. A Forcer's
// running totals are its Total field, gathered as Stats.

// Collect implements obs.Source with delta semantics: gathering the
// stats of several force computations accumulates.
func (st Stats) Collect(s *obs.Snapshot) {
	s.AddCounter("treecode.pp", "", st.PP)
	s.AddCounter("treecode.pc", "", st.PC)
	s.AddCounter("treecode.interactions", "", st.Interactions())
	// Nominal flops, treecode-paper convention.
	s.AddCounter("treecode.flops", "flops", st.Flops())
}

// Collect implements obs.Source with gauge (structure snapshot)
// semantics.
func (t *Tree) Collect(s *obs.Snapshot) {
	leaves := 0
	for i := range t.Nodes {
		if t.Nodes[i].Leaf {
			leaves++
		}
	}
	s.SetGauge("treecode.tree.nodes", "", float64(len(t.Nodes)))
	s.SetGauge("treecode.tree.leaves", "", float64(leaves))
	s.SetGauge("treecode.tree.sources", "", float64(len(t.Sources)))
	s.SetGauge("treecode.tree.bucket", "", float64(t.Bucket))
}

// The walk telemetry lives in a package-wide registry: walks are
// instrumented through per-arena pending counts (no atomics in the
// hot loops) flushed in batches, so the counters are cheap enough to
// stay on permanently.
var (
	listReg        = obs.NewRegistry()
	listWalks      = listReg.Counter("treecode.list.walks", "")
	listCells      = listReg.Counter("treecode.list.cells", "")
	listParts      = listReg.Counter("treecode.list.parts", "")
	listArenaAlloc = listReg.Counter("treecode.list.arena.alloc", "")
	listArenaReuse = listReg.Counter("treecode.list.arena.reuse", "")
	// Tree traversals saved by group evaluation: targets beyond the
	// first per group.
	listGroupSaved = listReg.Counter("treecode.list.groupwalk.saved", "")
	dualTasks      = listReg.Counter("treecode.dual.tasks", "")
	dualMAC        = listReg.Counter("treecode.dual.mac", "")
	// Cells accepted above group level: one test shared by every group
	// below.
	dualHoisted = listReg.Counter("treecode.dual.hoisted", "")
	dualGroups  = listReg.Counter("treecode.dual.groups", "")
)

// ListTelemetry returns the obs source for the interaction-list walks'
// process-wide counters (live cumulative semantics, like the cpu
// calibration memo).
func ListTelemetry() obs.Source { return listReg }

// Collect implements obs.Source with delta semantics for the work and
// import counters (a sweep accumulates) and max semantics for the
// makespan. Communication volume is the World's to report — gather the
// world alongside the result.
func (r *ParallelResult) Collect(s *obs.Snapshot) {
	r.Stats.Collect(s)
	// Pseudo and real sources imported across ranks.
	s.AddCounter("treecode.par.imported_sources", "", uint64(r.ImportedSources))
	// Distributed force makespan, the max over gathered runs.
	s.MaxGauge("treecode.par.sim_time", "s", r.SimTime)
}
