package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// The paper's rank counts: the CPU counts of Table 2, used for the NAS
// sweep too.
var paperRanks = []int{1, 2, 4, 8, 16, 24}

// table2Particles sizes Table 2 below the paper's 60000 so that one op
// takes a few seconds (2.2 s on a 2-vCPU Xeon VM) and a 20 s run holds
// several.
const table2Particles = 20000

// tablesSetupReps is how many times a run repeats set-up (the
// calibration memo fill); setup_s is the median.
const tablesSetupReps = 3

// The sweeps run serially: only the serial sweep emits the per-rank-count
// spans the traced run attributes time with.
func table2Config() core.Table2Config {
	return core.Table2Config{Particles: table2Particles, CPUCounts: paperRanks, Theta: 0.7}
}

func nasSweepConfig() core.NASSweepConfig {
	return core.NASSweepConfig{Class: nas.ClassS, Ranks: paperRanks}
}

// paperValues are every simulated number one paper-tables op produces.
// They are pure functions of the program, recorded once in
// paper_tables.json and compared bit for bit.
type paperValues struct {
	Table1      []core.Table1Row   `json:"table1"`
	Table2      []core.Table2Row   `json:"table2"`
	NASSweep    []core.NASSweepRow `json:"nassweep"`
	MakespanSum float64            `json:"nassweep_makespan_sum"`
}

//go:embed paper_tables.json
var paperGolden []byte

// calibrate fills the calibration memo the tables read, from empty.
func calibrate() error {
	cpu.ResetCalibCache()
	for _, mr := range []float64{cpu.MissRateTree, cpu.MissRateClassW} {
		if _, err := cpu.CalibrateFor(cpu.NewTM5600(), mr); err != nil {
			return err
		}
	}
	return nil
}

type tablesOp struct {
	t1, t2, nas time.Duration
	vals        paperValues
	snap        *obs.Snapshot
}

func runTablesOp(tr *obs.Tracer) (*tablesOp, error) {
	r := core.NewRun()
	r.Tracer = tr
	op := &tablesOp{snap: r.Snap}
	var err error
	sp := tr.Begin(obs.PidHost, 0, "core", "table1")
	t := time.Now()
	op.vals.Table1, _, err = r.Table1()
	op.t1 = time.Since(t)
	sp.End(nil)
	if err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	sp = tr.Begin(obs.PidHost, 0, "core", "table2")
	t = time.Now()
	op.vals.Table2, _, err = r.Table2(table2Config())
	op.t2 = time.Since(t)
	sp.End(nil)
	if err != nil {
		return nil, fmt.Errorf("table 2: %w", err)
	}
	sp = tr.Begin(obs.PidHost, 0, "core", "nassweep")
	t = time.Now()
	op.vals.NASSweep, _, err = r.NASSweep(nasSweepConfig())
	op.nas = time.Since(t)
	sp.End(nil)
	if err != nil {
		return nil, fmt.Errorf("NAS sweep: %w", err)
	}
	for _, row := range op.vals.NASSweep {
		op.vals.MakespanSum += row.EPTime + row.ISTime
	}
	return op, nil
}

// samePaperValues compares two result sets bit for bit, by their exact
// JSON encoding (encoding/json writes the shortest float64 form that
// parses back to the same bits).
func samePaperValues(a, b paperValues) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(ja) == string(jb), nil
}

// recordPaperTables runs one op and writes its values as the reference.
func recordPaperTables(path string) error {
	if err := calibrate(); err != nil {
		return err
	}
	op, err := runTablesOp(nil)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(op.vals, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runTables runs the paper-tables workload: each op is Table 1, Table 2
// and the NAS sweep on a fresh core.Run. The inputs are the paper's, so
// the seed does not enter.
func runTables(cfg config) (*outcome, error) {
	var want paperValues
	if err := json.Unmarshal(paperGolden, &want); err != nil {
		return nil, fmt.Errorf("paper_tables.json: %w", err)
	}
	var setups []float64
	for rep := 0; rep < tablesSetupReps; rep++ {
		runtime.GC()
		t := time.Now()
		if err := calibrate(); err != nil {
			return nil, fmt.Errorf("calibrate: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	out := &outcome{metrics: map[string]float64{}}
	var tr *obs.Tracer
	if cfg.trace {
		tr = obs.NewTracer()
	}
	var lat, latTraced, t1, t2, tn, cpuMS, rssMB []float64
	var alloc, pause float64
	var traced int
	var cmsCycles, regions, interp, msgs, bytes uint64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		traceOp := cfg.trace && i%2 == 1
		var optr *obs.Tracer
		if traceOp {
			optr = tr
		}
		runtime.GC()
		var ms0 runtime.MemStats
		if traceOp {
			runtime.ReadMemStats(&ms0)
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		cpu0 := cpuTime()
		sp := optr.Begin(obs.PidHost, 0, "op", "tables")
		op, err := runTablesOp(optr)
		sp.End(nil)
		out.attempted++
		if err != nil {
			out.fail(1, "op %d: %v", i, err)
			continue
		}
		d := op.t1 + op.t2 + op.nas
		if same, err := samePaperValues(op.vals, want); err != nil || !same {
			out.fail(1, "op %d: simulated values differ from paper_tables.json (%v)", i, err)
		}
		if !traceOp {
			cpuMS = append(cpuMS, ms(cpuTime()-cpu0))
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			rssMB = append(rssMB, rss)
			lat = append(lat, ms(d))
			t1 = append(t1, op.t1.Seconds())
			t2 = append(t2, op.t2.Seconds())
			tn = append(tn, op.nas.Seconds())
			continue
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		alloc += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		pause += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		latTraced = append(latTraced, ms(d))
		traced++
		cmsCycles += op.snap.Counter("cms.cycles.total")
		regions += op.snap.Counter("cms.translate.regions")
		interp += op.snap.Counter("cms.interp.instrs")
		msgs += op.snap.Counter("mpi.messages.total")
		bytes += op.snap.Counter("mpi.bytes.total")
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no untraced op completed in %gs", cfg.seconds)
	}
	out.note("op_p50_ms", median(lat), "ms", fmt.Sprintf("Table 1 + Table 2 + NAS sweep, n=%d", len(lat)))
	out.note("table1_s", median(t1), "s", "")
	out.note("table2_s", median(t2), "s", fmt.Sprintf("%d particles, CPUs %v", table2Particles, paperRanks))
	out.note("nassweep_s", median(tn), "s", fmt.Sprintf("class S EP+IS, ranks %v", paperRanks))
	if !cfg.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_p50_ms"] = median(lat)
		out.metrics["cpu_ms_per_op"] = median(cpuMS)
		out.metrics["peak_rss_mb"] = median(rssMB)
		return out, nil
	}
	if traced == 0 {
		return nil, fmt.Errorf("no traced op completed in %gs", cfg.seconds)
	}
	epMS, isMS, err := timeNAS()
	if err != nil {
		return nil, err
	}
	stats, err := writeTrace(tr, traceDir, cfg.traceFile)
	if err != nil {
		return nil, err
	}
	n := float64(traced)
	crusoe := cpu.NewTM5600().Name()
	crusoeUS := sumSpans(stats, spanKey("table1", crusoe), false)
	parUS := sumSpans(stats, "table2/", false)
	nasUS := sumSpans(stats, "nassweep/", false)
	m := out.metrics
	m["table1_s"] = median(t1)
	m["table2_s"] = median(t2)
	m["nassweep_s"] = median(tn)
	m["cpu.calibrate_s"] = median(setups)
	m["cms.crusoe_ms"] = crusoeUS / 1e3 / n
	m["cpu.superscalar_ms"] = (sumSpans(stats, "table1/", false) - crusoeUS) / 1e3 / n
	m["cms.ns_per_sim_cycle"] = crusoeUS * 1e3 / float64(cmsCycles)
	m["cms.translate_regions"] = float64(regions) / n
	m["cms.interp_instrs"] = float64(interp) / n
	m["treecode.parallel_ms"] = parUS / 1e3 / n
	m["mpi.messages"] = float64(msgs) / n
	m["mpi.bytes"] = float64(bytes) / n
	m["mpi.us_per_message"] = (parUS + nasUS) / float64(msgs)
	m["nas.ep_ms"] = epMS
	m["nas.is_ms"] = isMS
	m["go.alloc_mb_per_op"] = alloc / n
	m["go.gc_pause_ms_per_op"] = pause / n
	m["obs.trace_overhead_pct"] = 100 * (median(latTraced)/median(lat) - 1)
	// Time inside each table call that the program's per-processor and
	// per-rank-count spans do not cover.
	m["unattributed_share"] = sumSpans(stats, "core/", true) / (sum(latTraced) * 1e3)
	out.spans, out.spanOps = stats, traced
	return out, nil
}

// timeNAS calls the parallel NAS kernels directly at the sweep's rank
// counts and returns the host time of one pass over them, EP and IS.
func timeNAS() (epMS, isMS float64, err error) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		return 0, 0, err
	}
	kernels := []struct {
		ms  *float64
		run func(*mpi.World, nas.Class, cpu.EffCosts) (*nas.ParallelResult, error)
	}{{&epMS, nas.ParallelEP}, {&isMS, nas.ParallelIS}}
	for _, k := range kernels {
		for _, p := range paperRanks {
			w, err := mpi.NewWorld(p, netsim.FastEthernet())
			if err != nil {
				return 0, 0, err
			}
			t := time.Now()
			_, err = k.run(w, nas.ClassS, costs)
			*k.ms += ms(time.Since(t))
			if err != nil {
				return 0, 0, fmt.Errorf("NAS kernel at %d ranks: %w", p, err)
			}
		}
	}
	return epMS, isMS, nil
}
