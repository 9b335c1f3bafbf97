package core

import (
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

// NASSweepConfig sizes the parallel NAS rank sweep.
type NASSweepConfig struct {
	// Class is the NPB problem class (S, W, A).
	Class nas.Class
	// Ranks lists the world sizes to sweep.
	Ranks []int
	// Native selects the native collective algorithms (recursive
	// doubling, pipelined ring) instead of the classic patterns.
	Native bool
	// Contention enables the per-port occupancy model on the fabric.
	Contention bool
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
// 24-blade chassis with the default (classic, uncontended) substrate.
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
	ep, is   *nas.ParallelResult
	wEP, wIS *mpi.World
	err      error
}

// NASSweep runs ParallelEP and ParallelIS at every configured rank
// count on the modelled cluster and reports simulated times, speedups
// and substrate statistics. The tracer sees one host span for the
// whole sweep.
func (r *Run) NASSweep(cfg NASSweepConfig) ([]NASSweepRow, *metrics.Table, error) {
	if len(cfg.Ranks) == 0 {
		return nil, nil, fmt.Errorf("core: empty NASSweep config")
	}
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		return nil, nil, err
	}
	mkWorld := func(p int) (*mpi.World, error) {
		f := netsim.FastEthernet()
		f.PortContention = cfg.Contention
		if err := netsim.ApplyTopology(f, cfg.Fabric, p); err != nil {
			return nil, err
		}
		w, err := mpi.NewWorldWithConfig(p, mpi.Config{Fabric: f, Native: cfg.Native})
		if err != nil {
			return nil, err
		}
		w.Tracer = r.Tracer
		return w, nil
	}
	outs := make([]nasSweepOut, len(cfg.Ranks))
	runOne := func(i int) {
		o := &outs[i]
		p := cfg.Ranks[i]
		wEP, err := mkWorld(p)
		if err != nil {
			o.err = err
			return
		}
		o.wEP = wEP
		if o.ep, o.err = nas.ParallelEP(wEP, cfg.Class, costs); o.err != nil {
			return
		}
		if cfg.EPOnly {
			return
		}
		wIS, err := mkWorld(p)
		if err != nil {
			o.err = err
			return
		}
		o.wIS = wIS
		o.is, o.err = nas.ParallelIS(wIS, cfg.Class, costs)
	}
	sp := r.Tracer.Begin(obs.PidHost, 0, "nassweep", "sweep")
	sweepWorlds(len(cfg.Ranks), runOne)
	sp.End(nil)

	// Deterministic post-pass: rows, gauges and world gathers in
	// rank-count order, independent of completion order.
	var rows []NASSweepRow
	var epT1, isT1 float64
	for i, p := range cfg.Ranks {
		o := &outs[i]
		if o.err != nil {
			return nil, nil, o.err
		}
		if epT1 == 0 {
			epT1 = o.ep.SimTime
			if p != 1 {
				epT1 *= float64(p) // fallback if the sweep skips p=1
			}
		}
		if isT1 == 0 && o.is != nil {
			isT1 = o.is.SimTime
			if p != 1 {
				isT1 *= float64(p)
			}
		}
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
		r.Snap.SetGauge(pfx+"ep.time", "s", "simulated EP makespan", row.EPTime)
		r.Snap.SetGauge(pfx+"ep.speedup", "", "EP speedup over one blade", row.EPSpeedup)
		if o.is != nil {
			r.Snap.SetGauge(pfx+"is.time", "s", "simulated IS makespan", row.ISTime)
			r.Snap.SetGauge(pfx+"is.speedup", "", "IS speedup over one blade", row.ISSpeedup)
		}
		r.Snap.SetGauge(pfx+"bytes", "bytes", "EP+IS payload bytes", float64(row.CommBytes))
		r.Snap.SetGauge(pfx+"pool.hits", "", "buffer-pool hits, EP+IS worlds", float64(row.PoolHits))
		r.Snap.SetGauge(pfx+"pool.misses", "", "buffer-pool misses, EP+IS worlds", float64(row.PoolMisses))
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
