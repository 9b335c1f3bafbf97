package cpu

import (
	"sync"

	"repro/internal/obs"
)

// Calibration is deterministic for a given processor model and miss
// rate, yet every benchmark table, driver and example used to re-run the
// full per-class kernel simulations (eight kernels × 200k iterations of
// CMS+VLIW for the Crusoe) at each call site. This file memoizes
// CalibrateFor process-wide.
//
// The memo key is (processor name, clock, miss rate): a processor's name
// and clock identify its timing model everywhere in this repo. Callers
// who mutate a model's parameters without renaming it must use
// CalibrateForUncached (the ablation bypass) or ResetCalibCache.

type calibKey struct {
	name     string
	clockMHz float64
	missRate float64
}

type calibEntry struct {
	once  sync.Once
	costs EffCosts
	err   error
}

// The hit/miss counters live in an obs registry, read through
// CalibMemoSource. A call that waited on another goroutine's in-flight
// calibration counts as a hit.
var (
	calibMemo   sync.Map // calibKey -> *calibEntry
	calibReg    = obs.NewRegistry()
	calibHits   = calibReg.Counter("cpu.calib.memo.hits", "")
	calibMisses = calibReg.Counter("cpu.calib.memo.misses", "")
)

// CalibMemoSource returns the obs source for the calibration memo's
// process-wide hit/miss counters (live cumulative semantics).
func CalibMemoSource() obs.Source { return calibReg }

// CalibrateFor is the memoized form of CalibrateForUncached: the first
// call for a (processor, miss rate) pair runs the full calibration
// simulations; concurrent and subsequent calls for the same pair share
// that one run. Safe for concurrent use.
func CalibrateFor(p Processor, missRate float64) (EffCosts, error) {
	key := calibKey{name: p.Name(), clockMHz: p.ClockMHz(), missRate: missRate}
	v, _ := calibMemo.LoadOrStore(key, &calibEntry{})
	e := v.(*calibEntry)
	first := false
	e.once.Do(func() {
		first = true
		e.costs, e.err = CalibrateForUncached(p, missRate)
	})
	if first {
		calibMisses.Inc()
	} else {
		calibHits.Inc()
	}
	return e.costs, e.err
}

// ResetCalibCache drops every memoized calibration and zeroes the
// counters, for tests and ablations.
func ResetCalibCache() {
	calibMemo.Range(func(k, _ any) bool {
		calibMemo.Delete(k)
		return true
	})
	calibHits.Reset()
	calibMisses.Reset()
}
