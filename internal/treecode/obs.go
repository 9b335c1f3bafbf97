package treecode

import "repro/internal/obs"

// This file re-homes treecode telemetry onto the unified obs layer:
// Stats, Tree, Forcer and ParallelResult implement obs.Source. The old
// field-poking paths (Forcer.LastStats, ParallelResult fields) remain
// as views over the same numbers.

var statsMetrics = []obs.Metric{
	{Name: "treecode.pp", Kind: obs.KindCounter, Help: "particle–particle interactions"},
	{Name: "treecode.pc", Kind: obs.KindCounter, Help: "particle–cell interactions"},
	{Name: "treecode.interactions", Kind: obs.KindCounter, Help: "total interactions"},
	{Name: "treecode.flops", Kind: obs.KindCounter, Unit: "flops", Help: "nominal flops, treecode-paper convention"},
}

// Describe implements obs.Source.
func (st Stats) Describe() []obs.Metric { return statsMetrics }

// Collect implements obs.Source with delta semantics: gathering the
// stats of several force computations accumulates.
func (st Stats) Collect(s *obs.Snapshot) {
	s.AddCounter("treecode.pp", "", "particle–particle interactions", st.PP)
	s.AddCounter("treecode.pc", "", "particle–cell interactions", st.PC)
	s.AddCounter("treecode.interactions", "", "total interactions", st.Interactions())
	s.AddCounter("treecode.flops", "flops", "nominal flops, treecode-paper convention", st.Flops())
}

var treeMetrics = []obs.Metric{
	{Name: "treecode.tree.nodes", Kind: obs.KindGauge, Help: "cells in the tree"},
	{Name: "treecode.tree.leaves", Kind: obs.KindGauge, Help: "leaf cells"},
	{Name: "treecode.tree.sources", Kind: obs.KindGauge, Help: "sources the tree covers"},
	{Name: "treecode.tree.bucket", Kind: obs.KindGauge, Help: "leaf bucket size"},
}

// Describe implements obs.Source.
func (t *Tree) Describe() []obs.Metric { return treeMetrics }

// Collect implements obs.Source with gauge (structure snapshot)
// semantics.
func (t *Tree) Collect(s *obs.Snapshot) {
	leaves := 0
	for i := range t.Nodes {
		if t.Nodes[i].Leaf {
			leaves++
		}
	}
	s.SetGauge("treecode.tree.nodes", "", "cells in the tree", float64(len(t.Nodes)))
	s.SetGauge("treecode.tree.leaves", "", "leaf cells", float64(leaves))
	s.SetGauge("treecode.tree.sources", "", "sources the tree covers", float64(len(t.Sources)))
	s.SetGauge("treecode.tree.bucket", "", "leaf bucket size", float64(t.Bucket))
}

// Describe implements obs.Source.
func (f *Forcer) Describe() []obs.Metric { return statsMetrics }

// Collect implements obs.Source: the forcer exports its cumulative
// totals (overwrite semantics — it is the live accumulator, so
// gathering twice does not double-count).
func (f *Forcer) Collect(s *obs.Snapshot) {
	s.SetCounter("treecode.pp", "", "particle–particle interactions", f.Total.PP)
	s.SetCounter("treecode.pc", "", "particle–cell interactions", f.Total.PC)
	s.SetCounter("treecode.interactions", "", "total interactions", f.Total.Interactions())
	s.SetCounter("treecode.flops", "flops", "nominal flops, treecode-paper convention", f.Total.Flops())
}

var parallelMetrics = append(append([]obs.Metric(nil), statsMetrics...),
	obs.Metric{Name: "treecode.par.imported_sources", Kind: obs.KindCounter, Help: "pseudo/real sources imported across ranks"},
	obs.Metric{Name: "treecode.par.sim_time", Kind: obs.KindGauge, Unit: "s", Help: "distributed force makespan (max over gathered runs)"},
)

// Describe implements obs.Source.
func (r *ParallelResult) Describe() []obs.Metric { return parallelMetrics }

// The walk telemetry lives in a package-wide registry: walks are
// instrumented through per-arena pending counts (no atomics in the
// hot loops) flushed in batches, so the counters are cheap enough to
// stay on permanently.
var (
	listReg        = obs.NewRegistry()
	listWalks      = listReg.Counter("treecode.list.walks", "", "dual-tree interaction-list traversals")
	listCells      = listReg.Counter("treecode.list.cells", "", "cells appended to interaction lists")
	listParts      = listReg.Counter("treecode.list.parts", "", "leaf sources appended to interaction lists")
	listArenaAlloc = listReg.Counter("treecode.list.arena.alloc", "", "walk arenas allocated")
	listArenaReuse = listReg.Counter("treecode.list.arena.reuse", "", "walk-arena acquisitions served by an existing arena")
	listGroupSaved = listReg.Counter("treecode.list.groupwalk.saved", "", "tree traversals saved by group evaluation (targets beyond the first per group)")
	dualTasks      = listReg.Counter("treecode.dual.tasks", "", "dual-tree traversal tasks run")
	dualMAC        = listReg.Counter("treecode.dual.mac", "", "MAC tests performed by dual traversals")
	dualHoisted    = listReg.Counter("treecode.dual.hoisted", "", "cells accepted above group level (one test shared by every group below)")
	dualGroups     = listReg.Counter("treecode.dual.groups", "", "target groups evaluated by dual traversals")
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
	s.AddCounter("treecode.par.imported_sources", "", "pseudo/real sources imported across ranks", uint64(r.ImportedSources))
	s.MaxGauge("treecode.par.sim_time", "s", "distributed force makespan (max over gathered runs)", r.SimTime)
}
