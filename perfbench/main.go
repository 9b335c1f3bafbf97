// Command perfbench is the repository's benchmark. It runs one workload
// in its own process, checks the program's outputs, and prints one JSON
// result as its last line: the end-to-end metrics from an untraced run
// (--trace 0) or the per-layer metrics from a traced run (--trace 1).
// With --workload all it runs every workload in a child process and
// prints a summary table per workload.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload nbody-leapfrog --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// WORKLOADS.md describes each workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

type config struct {
	seed      uint64
	seconds   float64
	trace     bool
	traceFile string
}

// reportLine is a measurement printed for people, outside the result.
type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	// metrics are the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	metrics map[string]float64
	report  []reportLine
	spans   map[string]*spanStat
	spanOps int
}

// fail records ops failed ops.
func (o *outcome) fail(ops int, format string, args ...any) {
	o.failed += ops
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(name string, value float64, unit, note string) {
	o.report = append(o.report, reportLine{name, value, unit, note})
}

// noteTail records the p-th percentile of xs with its sample counts,
// or only the counts when fewer than minTail samples lie beyond it.
func (o *outcome) noteTail(name string, xs []float64, p float64, unit string) {
	n := len(xs)
	if !tailOK(n, p) {
		o.note(name, math.NaN(), unit, fmt.Sprintf("not reported: n=%d, %d samples beyond, need %d", n, beyond(n, p), minTail))
		return
	}
	o.note(name, percentile(xs, p), unit, fmt.Sprintf("n=%d, %d samples beyond", n, beyond(n, p)))
}

// workloads in the order BENCHMARK.json lists them.
var workloads = []struct {
	name string
	run  func(config) (*outcome, error)
}{
	{"nbody-leapfrog", func(c config) (*outcome, error) { return runNBody(leapfrogCase, c) }},
	{"nbody-blockstep", func(c config) (*outcome, error) { return runNBody(blockstepCase, c) }},
	{"paper-tables", runTables},
	{"gridd-mix", runGridd},
}

// traceDir is where a traced run writes its Chrome trace.
const traceDir = ".bench_build/traces"

func main() {
	workload := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	record := flag.String("record-paper-tables", "", "write the paper-tables reference values to this `file` and exit")
	flag.Parse()

	if *record != "" {
		if err := recordPaperTables(*record); err != nil {
			fatal(err)
		}
		return
	}
	endToEnd, perLayer, err := loadDefs(benchFile)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	var run func(config) (*outcome, error)
	var names []string
	for _, w := range workloads {
		if w.name == *workload {
			run = w.run
		}
		names = append(names, w.name)
	}
	if run == nil {
		fatal(fmt.Errorf("unknown workload %q (want one of %v or all)", *workload, names))
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceFile: fmt.Sprintf("%s-seed%d.json", *workload, *seed),
	}
	out, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := printOutcome(*workload, cfg, defs, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printOutcome prints the report lines and then the result line.
func printOutcome(name string, cfg config, defs []metricDef, out *outcome) error {
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer"
	}
	metrics, err := fill(defs, out.metrics, !cfg.trace)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  window %gs  ops %d  failed %d\n", name, cfg.seed, cfg.seconds, out.attempted, out.failed)
	for _, f := range out.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	fmt.Println(" report-only:")
	for _, r := range out.report {
		fmt.Printf("  %-28s %14.6g %-6s %s\n", r.name, r.value, r.unit, r.note)
	}
	fmt.Printf(" %s metrics:\n", kind)
	for _, d := range defs {
		if _, ok := out.metrics[d.Name]; !ok {
			fmt.Printf("  %-28s %14s %-6s not measured on this workload\n", d.Name, "-", d.Unit)
			continue
		}
		fmt.Printf("  %-28s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	if out.spans != nil {
		fmt.Printf(" layer self-times (%s/%s):\n", traceDir, cfg.traceFile)
		printSpans(out.spans, out.spanOps)
	}
	b, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAll runs every workload in its own child process and prints each
// child's output followed by a one-line summary per workload.
func runAll(seed uint64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var summary []string
	var failed bool
	for _, wl := range workloads {
		w := wl.name
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var last string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		if err := cmd.Wait(); err != nil {
			failed = true
			summary = append(summary, fmt.Sprintf("%-16s ERROR %v", w, err))
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("%s: bad result line: %w", w, err)
		}
		if !res.Correct {
			failed = true
		}
		summary = append(summary, fmt.Sprintf("%-16s correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed))
	}
	fmt.Println("summary:")
	for _, s := range summary {
		fmt.Println(" ", s)
	}
	if failed {
		return errors.New("a workload failed")
	}
	return nil
}
