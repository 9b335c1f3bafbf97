package core

import (
	"cmp"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/par"
)

// The rank-sweep harness: the p=1..24 sweeps behind the paper's
// scalability results run many completely independent Worlds — one per
// rank count — so the host executes them concurrently on the process
// pool (-procs wide; at width 1 they run one after another in order).
// Per the determinism contract, concurrency is invisible in the results:
// every world's virtual times, byte counts and pool statistics are pure
// functions of its own program, and the harness folds rows, gauges and
// snapshot gathers in rank-count order in a serial post-pass, so a sweep
// at any pool width produces bit-identical rows and snapshots.

// sweepWorlds runs run(0), …, run(n-1) as independent tasks on the
// process pool.
func sweepWorlds(n int, run func(i int)) {
	tasks := make([]func(), n)
	for i := range tasks {
		tasks[i] = func() { run(i) }
	}
	par.Default().Do(tasks...)
}

// firstErr returns the first non-nil error in task order, so a fan-out
// fails as its serial loop would.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serialTime returns the one-processor time a sweep's speed-ups are
// measured against: time(i) of the first row with ps[i] == 1, wherever
// it sits, or — when the sweep has no p=1 row — the first row's time
// scaled by its p.
func serialTime(ps []int, time func(i int) float64) float64 {
	for i, p := range ps {
		if p == 1 {
			return time(i)
		}
	}
	return time(0) * float64(ps[0])
}

// newWorld builds a p-rank world on the paper's Fast Ethernet, shaped
// as the named topology ("" keeps the star switch), traced by the
// run's tracer.
func (r *Run) newWorld(p int, fabric string) (*mpi.World, error) {
	f := netsim.FastEthernet()
	if err := netsim.ApplyTopology(f, fabric, p); err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(p, f)
	if err != nil {
		return nil, err
	}
	w.Tracer = r.Tracer
	return w, nil
}

// NASSweepConfig sizes the parallel NAS rank sweep.
type NASSweepConfig struct {
	// Class is the NPB problem class (S, W, A).
	Class nas.Class
	// Ranks lists the world sizes to sweep.
	Ranks []int
	// Fabric names the interconnect topology: "star" (or empty, the
	// paper's switch), "fattree", "torus2d", "torus3d". Shaped fabrics
	// get topology-aware hop counts and hierarchical collectives.
	Fabric string
	// EPOnly skips the IS kernel. Large-p sweeps set it: IS keys scale
	// with the key space per rank and its all-to-all holds O(p²) live
	// slices, while EP stays lean at any p.
	EPOnly bool
}

// DefaultNASSweepConfig sweeps EP and IS over every blade count of the
// 24-blade chassis.
func DefaultNASSweepConfig() NASSweepConfig {
	ranks := make([]int, 24)
	for i := range ranks {
		ranks[i] = i + 1
	}
	return NASSweepConfig{Class: nas.ClassS, Ranks: ranks}
}

// NASSweepRow is one rank count's measurement.
type NASSweepRow struct {
	Ranks                int
	EPTime, ISTime       float64 // simulated makespans
	EPSpeedup, ISSpeedup float64 // over the one-rank run
	CommBytes            int64   // EP+IS payload bytes
	PoolHits, PoolMisses int64   // buffer-pool traffic across both worlds
}

// nasSweepOut is one rank count's raw results, filled by possibly
// concurrent workers and consumed by the deterministic post-pass.
type nasSweepOut struct {
	ep, is       *nas.ParallelResult
	wEP, wIS     *mpi.World
	epErr, isErr error
}

// NASSweep runs ParallelEP and ParallelIS at every configured rank
// count on the modelled cluster and reports simulated times, speedups
// and substrate statistics. EP's pair stream is generated once per
// call: one pool task folds every rank of every rank count
// (nas.EPPartitions) while the IS worlds run beside it, and the EP
// worlds then run on its outputs (nas.ParallelEPFrom). Each EP rank
// still charges its own compute time and runs the allreduce, so every
// row is what a standalone ParallelEP gives. The tracer sees one host
// span for the whole sweep.
func (r *Run) NASSweep(cfg NASSweepConfig) ([]NASSweepRow, *metrics.Table, error) {
	if len(cfg.Ranks) == 0 {
		return nil, nil, fmt.Errorf("core: empty NASSweep config")
	}
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]nasSweepOut, len(cfg.Ranks))
	var epOuts [][]nas.EPOut
	var epErr error
	tasks := []func(){func() { epOuts, epErr = nas.EPPartitions(cfg.Class, cfg.Ranks) }}
	if !cfg.EPOnly {
		for i, p := range cfg.Ranks {
			tasks = append(tasks, func() {
				o := &outs[i]
				if o.wIS, o.isErr = r.newWorld(p, cfg.Fabric); o.isErr == nil {
					o.is, o.isErr = nas.ParallelIS(o.wIS, cfg.Class, costs)
				}
			})
		}
	}
	runEP := func(i int) {
		o := &outs[i]
		if o.wEP, o.epErr = r.newWorld(cfg.Ranks[i], cfg.Fabric); o.epErr != nil {
			return
		}
		if epErr != nil {
			o.epErr = epErr
			return
		}
		o.ep, o.epErr = nas.ParallelEPFrom(o.wEP, cfg.Class, costs, epOuts[i])
	}
	sp := r.Tracer.Begin(obs.PidHost, 0, "nassweep", "sweep")
	par.Default().Do(tasks...)
	sweepWorlds(len(cfg.Ranks), runEP)
	sp.End(nil)

	// Deterministic post-pass: rows, gauges and world gathers in
	// rank-count order, independent of completion order.
	for i := range outs {
		if err := cmp.Or(outs[i].epErr, outs[i].isErr); err != nil {
			return nil, nil, err
		}
	}
	epT1 := serialTime(cfg.Ranks, func(i int) float64 { return outs[i].ep.SimTime })
	var isT1 float64
	if !cfg.EPOnly {
		isT1 = serialTime(cfg.Ranks, func(i int) float64 { return outs[i].is.SimTime })
	}
	var rows []NASSweepRow
	for i, p := range cfg.Ranks {
		o := &outs[i]
		hEP, mEP := o.wEP.PoolStats()
		row := NASSweepRow{
			Ranks:      p,
			EPTime:     o.ep.SimTime,
			EPSpeedup:  metrics.Speedup(epT1, o.ep.SimTime),
			CommBytes:  o.ep.CommByte,
			PoolHits:   hEP,
			PoolMisses: mEP,
		}
		if o.is != nil {
			hIS, mIS := o.wIS.PoolStats()
			row.ISTime = o.is.SimTime
			row.ISSpeedup = metrics.Speedup(isT1, o.is.SimTime)
			row.CommBytes += o.is.CommByte
			row.PoolHits += hIS
			row.PoolMisses += mIS
			r.gather(o.wEP, o.wIS)
		} else {
			r.gather(o.wEP)
		}
		pfx := fmt.Sprintf("nassweep.p%02d.", p)
		r.Snap.SetGauge(pfx+"ep.time", "s", row.EPTime)
		r.Snap.SetGauge(pfx+"ep.speedup", "", row.EPSpeedup)
		if o.is != nil {
			r.Snap.SetGauge(pfx+"is.time", "s", row.ISTime)
			r.Snap.SetGauge(pfx+"is.speedup", "", row.ISSpeedup)
		}
		// Payload bytes and pool traffic of the EP and IS worlds together.
		r.Snap.SetGauge(pfx+"bytes", "bytes", float64(row.CommBytes))
		r.Snap.SetGauge(pfx+"pool.hits", "", float64(row.PoolHits))
		r.Snap.SetGauge(pfx+"pool.misses", "", float64(row.PoolMisses))
		rows = append(rows, row)
	}
	t := metrics.NewTable(
		fmt.Sprintf("Parallel NAS sweep (class %s) on MetaBlade", cfg.Class),
		"# Ranks", "EP time (s)", "EP speed-up", "IS time (s)", "IS speed-up", "Comm bytes", "Pool hits", "Pool misses")
	for _, row := range rows {
		t.AddRowf("%.4g", fmt.Sprintf("%d", row.Ranks),
			row.EPTime, row.EPSpeedup, row.ISTime, row.ISSpeedup,
			float64(row.CommBytes), float64(row.PoolHits), float64(row.PoolMisses))
	}
	return rows, t, nil
}
