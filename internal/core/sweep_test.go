package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/treecode"
)

// atWidth runs fn with the process pool w wide (0: the default width)
// and restores the default afterwards.
func atWidth[T any](w int, fn func() T) T {
	par.SetWorkers(w)
	defer par.SetWorkers(0)
	return fn()
}

// TestNASSweepConcurrentMatchesSerial pins the sweep harness's
// determinism contract: running the independent worlds concurrently on
// a 4-wide pool must produce bit-identical rows and an identical
// snapshot (same counters, gauges and timers, same values) to running
// them one at a time on a 1-wide pool.
func TestNASSweepConcurrentMatchesSerial(t *testing.T) {
	cfg := DefaultNASSweepConfig()
	cfg.Ranks = []int{1, 2, 3, 5, 8}
	type out struct {
		rows []NASSweepRow
		snap string
	}
	run := func() out {
		r := NewRun()
		rows, tab, err := r.NASSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tab == nil || len(rows) != len(cfg.Ranks) {
			t.Fatalf("sweep returned %d rows", len(rows))
		}
		return out{rows, r.Snap.String()}
	}
	serial := atWidth(1, run)
	conc := atWidth(4, run)
	if !reflect.DeepEqual(serial.rows, conc.rows) {
		t.Fatalf("rows differ:\nserial:     %+v\nconcurrent: %+v", serial.rows, conc.rows)
	}
	if serial.snap != conc.snap {
		t.Fatalf("snapshots differ:\nserial:\n%s\nconcurrent:\n%s", serial.snap, conc.snap)
	}
}

// TestTable1SweepIdenticalAtEveryWidth pins Table 1's fan-out: its ten
// microkernel runs on pools 1, 2 and 8 wide give byte-identical rows
// and snapshot JSON.
func TestTable1SweepIdenticalAtEveryWidth(t *testing.T) {
	run := func() string {
		r := NewRun()
		r.Tracer = obs.NewTracer()
		rows, _, err := r.Table1()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		var snap strings.Builder
		if err := r.Snap.WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n" + snap.String()
	}
	serial := atWidth(1, run)
	for _, w := range []int{2, 8} {
		if got := atWidth(w, run); got != serial {
			t.Fatalf("width %d differs from width 1:\n%s\n--- width 1 ---\n%s", w, got, serial)
		}
	}
}

func TestNASSweepSpeedupsAndSubstrateCounters(t *testing.T) {
	cfg := DefaultNASSweepConfig()
	cfg.Ranks = []int{1, 4, 8}
	rows, _, err := NewRun().NASSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].EPSpeedup != 1 {
		t.Fatalf("p=1 EP speedup = %g", rows[0].EPSpeedup)
	}
	last := rows[len(rows)-1]
	if last.EPSpeedup < 6 {
		t.Fatalf("EP speedup at 8 ranks only %.2f", last.EPSpeedup)
	}
	if last.CommBytes == 0 || last.PoolHits == 0 {
		t.Fatalf("substrate counters empty at p=8: %+v", last)
	}
}

func TestNASSweepEmptyConfigRejected(t *testing.T) {
	if _, _, err := NewRun().NASSweep(NASSweepConfig{Class: nas.ClassS}); err == nil {
		t.Fatal("empty rank list accepted")
	}
}

// TestTable2ConcurrentMatchesSerial extends the determinism contract to
// the paper's Table 2 sweep: a 1-wide pool against the default width.
func TestTable2ConcurrentMatchesSerial(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Particles = 4000
	cfg.CPUCounts = []int{1, 2, 4}
	type out struct {
		rows []Table2Row
		snap string
	}
	run := func() out {
		r := NewRun()
		rows, _, err := r.Table2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out{rows, r.Snap.String()}
	}
	serial := atWidth(1, run)
	conc := atWidth(0, run)
	if !reflect.DeepEqual(serial.rows, conc.rows) {
		t.Fatalf("rows differ:\nserial:     %+v\nconcurrent: %+v", serial.rows, conc.rows)
	}
	if serial.snap != conc.snap {
		t.Fatal("snapshots differ between serial and concurrent Table 2")
	}
}

// TestTable2SweepSharesOneSystem: Table 2's worlds price one shared,
// read-only Plummer system with ParallelCost — concurrently on a 4-wide
// pool, one at a time on a 1-wide pool — and must give the rows and
// snapshot of a reference that runs ParallelForces on a fresh system
// per world, one world at a time.
func TestTable2SweepSharesOneSystem(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Particles = 4000
	cfg.CPUCounts = []int{1, 2, 3, 8}
	cm, err := tm5600TreeCost()
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRun()
	var times []float64
	for _, p := range cfg.CPUCounts {
		s := nbody.NewPlummer(cfg.Particles, 1, 2001)
		w, err := ref.newWorld(p, cfg.Fabric)
		if err != nil {
			t.Fatal(err)
		}
		res, err := treecode.ParallelForces(w, s, treecode.ParallelConfig{Theta: cfg.Theta, Eps: s.Eps, Cost: cm})
		if err != nil {
			t.Fatal(err)
		}
		ref.gather(w, res)
		times = append(times, res.SimTime)
	}
	var want []Table2Row
	for i, p := range cfg.CPUCounts {
		row := Table2Row{CPUs: p, TimeSec: times[i], Speedup: metrics.Speedup(times[0], times[i])}
		ref.Snap.SetGauge(fmt.Sprintf("table2.p%02d.time", p), "s", row.TimeSec)
		ref.Snap.SetGauge(fmt.Sprintf("table2.p%02d.speedup", p), "", row.Speedup)
		want = append(want, row)
	}
	for _, width := range []int{1, 4} {
		r := NewRun()
		rows := atWidth(width, func() []Table2Row {
			rows, _, err := r.Table2(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		})
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("width %d: rows %+v, want %+v", width, rows, want)
		}
		if got := r.Snap.String(); got != ref.Snap.String() {
			t.Fatalf("width %d: snapshot differs from the ParallelForces reference:\n%s\nwant:\n%s", width, got, ref.Snap.String())
		}
	}
}

// TestNASSweepSchedulersSameMakespans: the p=1..8 sweep BenchmarkNASSweep
// times simulates the same cluster however the host schedules it —
// one world at a time on a 1-wide pool or concurrently on an 8-wide
// one — so every row's EP and IS makespans agree bit for bit.
func TestNASSweepSchedulersSameMakespans(t *testing.T) {
	sweep := func() []NASSweepRow {
		cfg := DefaultNASSweepConfig()
		cfg.Ranks = cfg.Ranks[:8]
		rows, _, err := NewRun().NASSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := atWidth(1, sweep)
	for i, row := range atWidth(8, sweep) {
		want := serial[i]
		if math.Float64bits(row.EPTime) != math.Float64bits(want.EPTime) ||
			math.Float64bits(row.ISTime) != math.Float64bits(want.ISTime) {
			t.Errorf("concurrent sweep p=%d: makespans EP %g IS %g, serial EP %g IS %g",
				row.Ranks, row.EPTime, row.ISTime, want.EPTime, want.ISTime)
		}
	}
}

// TestSpeedupBaselineIsP1Row: a sweep's speed-ups are measured against
// its p=1 row wherever that row sits, so listing the rank counts in
// another order permutes the rows and changes no value; the first row
// scaled by its p stands in only when no p=1 row exists.
func TestSpeedupBaselineIsP1Row(t *testing.T) {
	t2 := func(ps ...int) map[int]Table2Row {
		rows, _, err := NewRun().Table2(Table2Config{Particles: 2000, CPUCounts: ps, Theta: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		byP := map[int]Table2Row{}
		for _, r := range rows {
			byP[r.CPUs] = r
		}
		return byP
	}
	if fwd, rev := t2(1, 2), t2(2, 1); !reflect.DeepEqual(fwd, rev) {
		t.Errorf("table2 rows depend on cpu_counts order:\n[1,2]: %+v\n[2,1]: %+v", fwd, rev)
	} else if rev[1].Speedup != 1 {
		t.Errorf("table2 p=1 speed-up %g, want 1", rev[1].Speedup)
	}
	if noP1 := t2(2, 4); noP1[2].Speedup != 2 {
		t.Errorf("table2 without p=1: first row speed-up %g, want its p (2)", noP1[2].Speedup)
	}

	nas := func(ps ...int) map[int]NASSweepRow {
		cfg := DefaultNASSweepConfig()
		cfg.Ranks = ps
		rows, _, err := NewRun().NASSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byP := map[int]NASSweepRow{}
		for _, r := range rows {
			byP[r.Ranks] = r
		}
		return byP
	}
	if fwd, rev := nas(1, 2), nas(2, 1); !reflect.DeepEqual(fwd, rev) {
		t.Errorf("nassweep rows depend on ranks order:\n[1,2]: %+v\n[2,1]: %+v", fwd, rev)
	} else if rev[1].EPSpeedup != 1 || rev[1].ISSpeedup != 1 {
		t.Errorf("nassweep p=1 speed-ups %g, %g, want 1", rev[1].EPSpeedup, rev[1].ISSpeedup)
	}
}

// TestNASSweepEPMatchesStandaloneEP makes the sweep's one-pass EP and a
// standalone nas.ParallelEP one contract: at pool widths 1 and 4, with
// and without IS beside it, the sweep's EP columns — time, speed-up,
// and EP's share of the payload bytes and pool traffic — equal a
// ParallelEP on a fresh world at each rank count (plus, with IS, a
// ParallelIS on another).
func TestNASSweepEPMatchesStandaloneEP(t *testing.T) {
	ranks := []int{1, 2, 3, 5, 8, 24}
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		t.Fatal(err)
	}
	// standalone returns each rank count's result and world for one
	// kernel, each on a fresh world.
	standalone := func(run func(*mpi.World, nas.Class, cpu.EffCosts) (*nas.ParallelResult, error)) ([]*nas.ParallelResult, []*mpi.World) {
		var res []*nas.ParallelResult
		var worlds []*mpi.World
		for _, p := range ranks {
			w, err := NewRun().newWorld(p, "")
			if err != nil {
				t.Fatal(err)
			}
			out, err := run(w, nas.ClassS, costs)
			if err != nil {
				t.Fatal(err)
			}
			res, worlds = append(res, out), append(worlds, w)
		}
		return res, worlds
	}
	ep, wEP := standalone(nas.ParallelEP)
	is, wIS := standalone(nas.ParallelIS)
	for _, width := range []int{1, 4} {
		for _, epOnly := range []bool{true, false} {
			cfg := NASSweepConfig{Class: nas.ClassS, Ranks: ranks, EPOnly: epOnly}
			rows := atWidth(width, func() []NASSweepRow {
				rows, _, err := NewRun().NASSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return rows
			})
			for i, row := range rows {
				hits, misses := wEP[i].PoolStats()
				bytes := ep[i].CommByte
				if !epOnly {
					h, m := wIS[i].PoolStats()
					hits, misses, bytes = hits+h, misses+m, bytes+is[i].CommByte
				}
				want := NASSweepRow{
					Ranks:      ranks[i],
					EPTime:     ep[i].SimTime,
					EPSpeedup:  metrics.Speedup(ep[0].SimTime, ep[i].SimTime),
					CommBytes:  bytes,
					PoolHits:   hits,
					PoolMisses: misses,
				}
				got := row
				got.ISTime, got.ISSpeedup = 0, 0
				if got != want {
					t.Errorf("width %d, EP only %v, p=%d: sweep %+v, standalone %+v", width, epOnly, ranks[i], got, want)
				}
			}
		}
	}
}
