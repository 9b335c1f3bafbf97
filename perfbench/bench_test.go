package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := median([]float64{2, 1}); got != 1.5 {
		t.Errorf("median of two = %g, want 1.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.99)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// A request that stalls its connection delays the requests queued
// behind it; their latency must carry the stall. The loop sleeps until
// request 1 is due and then waits for the connection, so that wait
// counts from its wake-up; it reaches requests 2 and 3 behind time, so
// theirs count from their due time.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * 10 * time.Millisecond
	}
	shots := openLoop(reqs, 1, func(_, i int) (int, []byte, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	})
	for i := 1; i < len(shots); i++ {
		if i >= 2 && shots[i].origin != reqs[i].due {
			t.Errorf("request %d: timed from %v, want its due time %v", i, shots[i].origin, reqs[i].due)
		}
		if got, want := shots[i].latency(), stall-shots[i].origin; got < want {
			t.Errorf("request %d: latency %v, want at least %v", i, got, want)
		}
		if late, want := shots[i].sent-shots[i].due, stall-reqs[i].due; late < want {
			t.Errorf("request %d: sent %v late, want at least %v", i, late, want)
		}
	}
	if got := shots[0].latency(); got < stall {
		t.Errorf("stalled request latency %v, want at least %v", got, stall)
	}
}

func TestRequestSequenceFixedBySeed(t *testing.T) {
	hotA, reqsA := griddTraffic(7, 4)
	hotB, reqsB := griddTraffic(7, 4)
	if !reflect.DeepEqual(hotA, hotB) || !reflect.DeepEqual(reqsA, reqsB) {
		t.Fatal("the same seed gave different traffic")
	}
	_, reqsC := griddTraffic(8, 4)
	if reflect.DeepEqual(reqsA, reqsC) {
		t.Fatal("seeds 7 and 8 gave the same traffic")
	}
	if len(hotA) != griddHot || len(reqsA) != int(4*griddRate) {
		t.Fatalf("got %d hot specs and %d requests", len(hotA), len(reqsA))
	}
	cold := map[string]bool{}
	for i, r := range reqsA {
		if r.hot >= 0 {
			continue
		}
		if cold[string(r.body)] {
			t.Fatalf("request %d repeats cold spec %s", i, r.body)
		}
		cold[string(r.body)] = true
	}
	if len(cold) == 0 {
		t.Fatal("no cold request in 4s of traffic")
	}
}

// BENCHMARK.json must name the workloads this program runs, in the
// same order, and every metric once, with names the result format
// accepts.
func TestMetricNames(t *testing.T) {
	if _, _, err := loadDefs("../" + benchFile); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
		want = append(want, w.name)
	}
	b, err := os.ReadFile("../" + benchFile)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("%s workloads %v, want %v", benchFile, names, want)
	}
}

// Each end-to-end name must carry its own measurement: a run measures
// every one of them, nothing else, and no two carry the same number, as
// a value copied under a second name would.
func TestEndToEndOneMeasurementEach(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	endToEnd, _, err := loadDefs(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		// The two workloads with short ops.
		if w.name != "nbody-blockstep" && w.name != "gridd-mix" {
			continue
		}
		out, err := w.run(config{seed: 3, seconds: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %d failed ops: %v", w.name, out.failed, out.failures)
		}
		if _, err := fill(endToEnd, out.metrics, true); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		seen := map[float64]string{}
		for name, v := range out.metrics {
			if v == 0 {
				t.Errorf("%s: %s is 0", w.name, name)
			}
			if other, dup := seen[v]; dup {
				t.Errorf("%s: %s and %s both read %v", w.name, name, other, v)
			}
			seen[v] = name
		}
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	stats := hostSpanStats([]traceEvent{
		{Name: "nbody", Cat: "op", Ph: "X", Pid: 1, Ts: 0, Dur: 100},
		{Name: "forcer", Cat: "treecode", Ph: "X", Pid: 1, Ts: 10, Dur: 50},
		{Name: "build", Cat: "treecode", Ph: "X", Pid: 1, Ts: 10, Dur: 20},
		{Name: "forces", Cat: "treecode", Ph: "X", Pid: 1, Ts: 35, Dur: 20},
		{Name: "p8", Cat: "table2", Ph: "X", Pid: 1, Ts: 70, Dur: 10},
		{Name: "p16", Cat: "table2", Ph: "X", Pid: 1, Ts: 80, Dur: 10},
		{Name: "other clock", Cat: "sim", Ph: "X", Pid: 3, Ts: 0, Dur: 1000},
	})
	want := map[string]float64{
		"op/nbody": 30, "treecode/forcer": 10, "treecode/build": 20,
		"treecode/forces": 20, "table2/p*": 20,
	}
	if len(stats) != len(want) {
		t.Fatalf("got %d span groups, want %d", len(stats), len(want))
	}
	for k, self := range want {
		if st := stats[k]; st == nil || st.Self != self {
			t.Errorf("%s: self %v, want %v", k, st, self)
		}
	}
}
