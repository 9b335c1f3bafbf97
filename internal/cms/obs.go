package cms

import "repro/internal/obs"

// This file exports CMS telemetry through the unified obs layer: Stats
// (and therefore Machine) implement obs.Source. Machine.Stats() returns
// the same numbers as a struct.

// Collect implements obs.Source with per-run delta semantics: counters
// accumulate into the snapshot, so gathering several machines (or
// several runs) sums them; the occupancy and packing-density gauges
// overwrite.
func (s Stats) Collect(snap *obs.Snapshot) {
	snap.AddCounter("cms.runs", "", s.Runs)
	// Runs entered with a non-empty translation cache.
	snap.AddCounter("cms.runs.warm", "", s.WarmRuns)
	snap.AddCounter("cms.interp.instrs", "", s.InterpInstrs)
	snap.AddCounter("cms.interp.cycles", "cycles", s.InterpCycles)
	snap.AddCounter("cms.translate.regions", "", s.Translations)
	// x86 instructions covered by translations.
	snap.AddCounter("cms.translate.instrs", "", s.TranslatedInstrs)
	snap.AddCounter("cms.translate.cycles", "cycles", s.TranslateCycles)
	snap.AddCounter("cms.native.executions", "", s.NativeExecutions)
	// Cycles inside translated code (VLIW accounting).
	snap.AddCounter("cms.native.cycles", "cycles", s.NativeCycles)
	snap.AddCounter("cms.native.atoms", "", s.NativeAtoms)
	snap.AddCounter("cms.native.molecules", "", s.NativeMolecules)
	snap.AddCounter("cms.dispatch.cycles", "cycles", s.DispatchCycles)
	snap.AddCounter("cms.dispatch.chained", "", s.ChainedDispatches)
	// Cold dispatches go through the CMS runtime.
	snap.AddCounter("cms.dispatch.cold", "", s.ColdDispatches)
	snap.AddCounter("cms.cache.evictions", "", s.CacheEvictions)
	snap.AddCounter("cms.chain.patches", "", s.ChainPatches)
	// Native-to-native hops through chain links; misses are native exits
	// with no cached successor; unchains are links severed by eviction.
	snap.AddCounter("cms.chain.hits", "", s.ChainHits)
	snap.AddCounter("cms.chain.misses", "", s.ChainMisses)
	snap.AddCounter("cms.chain.unchains", "", s.Unchains)
	// Total simulated cycles, all categories.
	snap.AddCounter("cms.cycles.total", "cycles", s.TotalCycles())
	// Current translation-cache occupancy.
	snap.SetGauge("cms.cache.atoms", "atoms", float64(s.CacheAtoms))
	// The ILP the translator extracted.
	snap.SetGauge("cms.packing_density", "atoms/molecule", s.PackingDensity())
}

// Collect implements obs.Source for the machine (a view over its
// accumulated stats).
func (m *Machine) Collect(snap *obs.Snapshot) { m.stats.Collect(snap) }
