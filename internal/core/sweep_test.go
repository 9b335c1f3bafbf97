package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/nas"
	"repro/internal/par"
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

func TestNASSweepVariantsChangeOnlyTimes(t *testing.T) {
	// Native collectives and the contention model are opt-in: they may
	// change simulated times but must not change what the kernels
	// compute — which the rows expose through verified comm volumes.
	base := DefaultNASSweepConfig()
	base.Ranks = []int{6}
	baseRows, _, err := NewRun().NASSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	contended := base
	contended.Contention = true
	conRows, _, err := NewRun().NASSweep(contended)
	if err != nil {
		t.Fatal(err)
	}
	if conRows[0].ISTime < baseRows[0].ISTime {
		t.Fatalf("contention made IS faster: %g vs %g", conRows[0].ISTime, baseRows[0].ISTime)
	}
	if conRows[0].CommBytes != baseRows[0].CommBytes {
		t.Fatalf("contention changed traffic: %d vs %d", conRows[0].CommBytes, baseRows[0].CommBytes)
	}
	native := base
	native.Native = true
	natRows, _, err := NewRun().NASSweep(native)
	if err != nil {
		t.Fatal(err)
	}
	if natRows[0].EPTime <= 0 || natRows[0].ISTime <= 0 {
		t.Fatalf("native sweep produced empty times: %+v", natRows[0])
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
