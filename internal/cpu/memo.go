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

// calibEntry is one memoized calibration; ready is closed once costs
// and err are set.
type calibEntry struct {
	ready chan struct{}
	costs EffCosts
	err   error
}

// The hit/miss counters live in an obs registry, read through
// CalibMemoSource. A miss is one calibration run, however many entries
// it fills; a hit is a call that found its entry filled or being
// filled, by its own key's run or by another miss rate's.
var (
	calibMu     sync.Mutex // guards calibMemo
	calibMemo   = map[calibKey]*calibEntry{}
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
// that one run. For a Crusoe the run also fills the entries of the
// workload miss rates (MissRateSmall, MissRateTree, MissRateClassW)
// that no call has claimed: timing steers no CMS decision, so each
// calibration kernel runs through CMS once and is priced under every
// rate's load latency. Safe for concurrent use.
func CalibrateFor(p Processor, missRate float64) (EffCosts, error) {
	key := calibKey{name: p.Name(), clockMHz: p.ClockMHz(), missRate: missRate}
	rates := []float64{missRate}
	if _, ok := p.(*Crusoe); ok {
		rates = append(rates, MissRateSmall, MissRateTree, MissRateClassW)
	}
	// Claim, under one lock, the requested entry and the rates' entries
	// no call holds, so concurrent calls for one processor at several
	// rates run one calibration between them.
	var claimed []float64
	var entries []*calibEntry
	calibMu.Lock()
	e := calibMemo[key]
	if e == nil {
		for _, mr := range rates {
			k := key
			k.missRate = mr
			if calibMemo[k] == nil {
				calibMemo[k] = &calibEntry{ready: make(chan struct{})}
				claimed, entries = append(claimed, mr), append(entries, calibMemo[k])
			}
		}
		e = entries[0]
	}
	calibMu.Unlock()
	if entries == nil {
		calibHits.Inc()
		<-e.ready
		return e.costs, e.err
	}
	calibMisses.Inc()
	defer func() {
		for _, f := range entries {
			close(f.ready)
		}
	}()
	costs, _, err := calibrateKernels(calibrationModels(p, claimed...)...)
	for i, f := range entries {
		f.costs, f.err = costs[i], err
	}
	return e.costs, e.err
}

// ResetCalibCache drops every memoized calibration and zeroes the
// counters, for tests and ablations.
func ResetCalibCache() {
	calibMu.Lock()
	clear(calibMemo)
	calibMu.Unlock()
	calibHits.Reset()
	calibMisses.Reset()
}
