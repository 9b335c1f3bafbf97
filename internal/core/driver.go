package core

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registered on the -debug-addr mux via DefaultServeMux
	"os"
	"runtime/metrics"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/treecode"
)

// Driver is the flag and output plumbing shared by the cmd/ binaries.
// Every driver gets the same observability surface:
//
//	-procs N         host worker count for parallel phases
//	-engine E        treecode force engine (auto/recursive/dual)
//	-error-budget B  force-error budget steering the auto engine choice
//	-obs-json PATH   write the run's obs snapshot as JSON
//	-obs-csv PATH    write the run's obs snapshot as CSV
//	-trace PATH      write a Chrome trace_event JSON trace
//	-format F        text (tables, default) or json (snapshot envelope)
//	-debug-addr A    serve net/http/pprof and runtime/metrics
//
// Usage: NewDriver(name) before flag.Parse, then Setup() after, Textf for
// human output, and Finish() last to emit the artifacts.
type Driver struct {
	Name      string
	Procs     int
	ObsJSON   string
	ObsCSV    string
	TracePath string
	Format    string
	DebugAddr string

	// EngineName/ErrorBudget mirror the shared force-engine flags;
	// Engine is the parsed selection, valid after Setup.
	EngineName  string
	ErrorBudget float64
	Engine      treecode.Engine

	// Run carries the snapshot and tracer every experiment records into;
	// valid after Setup.
	Run *Run

	debugSrv *http.Server
}

// NewDriver returns a Driver with the shared flags registered on the
// default command-line flag set. The caller still calls flag.Parse.
func NewDriver(name string) *Driver {
	d := &Driver{Name: name}
	d.RegisterFlags(flag.CommandLine)
	return d
}

// RegisterFlags registers the shared observability flags on fs; split
// out of NewDriver so tests can drive a private FlagSet.
func (d *Driver) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&d.Procs, "procs", 0, "host workers for parallel phases (0 = all cores); results are identical at any width")
	fs.StringVar(&d.ObsJSON, "obs-json", "", "write the run's obs snapshot as JSON to this `path`")
	fs.StringVar(&d.ObsCSV, "obs-csv", "", "write the run's obs snapshot as CSV to this `path`")
	fs.StringVar(&d.TracePath, "trace", "", "write a Chrome trace_event JSON trace to this `path` (load in chrome://tracing or Perfetto)")
	fs.StringVar(&d.Format, "format", "text", "output `format`: text or json")
	fs.StringVar(&d.DebugAddr, "debug-addr", "", "serve net/http/pprof and runtime/metrics on this `address` (e.g. localhost:6060)")
	fs.StringVar(&d.EngineName, "engine", "auto", "treecode force `engine`: auto, recursive (bit-exact), or dual")
	fs.Float64Var(&d.ErrorBudget, "error-budget", treecode.DefaultErrorBudget, "force-error budget for -engine auto, in units of the exact walk's own RMS error (< 1 pins the bit-exact recursive walk)")
}

// Setup validates the flags, applies -procs, and creates the Run (with a
// tracer when -trace is set). Call after flag parsing.
func (d *Driver) Setup() error {
	switch d.Format {
	case "text", "json":
	default:
		return fmt.Errorf("%s: unknown -format %q (want text or json)", d.Name, d.Format)
	}
	if d.Procs < 0 {
		return fmt.Errorf("%s: negative -procs", d.Name)
	}
	if d.Procs > 0 {
		par.SetWorkers(d.Procs)
	}
	engine, err := treecode.ParseEngine(d.EngineName)
	if err != nil {
		return fmt.Errorf("%s: %w", d.Name, err)
	}
	d.Engine = treecode.ResolveEngine(engine, d.ErrorBudget)
	d.Run = NewRun()
	d.Run.Snap.SetMeta("driver", d.Name)
	d.Run.Snap.SetMeta("args", strings.Join(os.Args[1:], " "))
	d.Run.Snap.SetMeta("workers", fmt.Sprintf("%d", par.Workers()))
	d.Run.Snap.SetMeta("engine", d.Engine.String())
	if d.TracePath != "" {
		t := obs.NewTracer()
		t.NameProcess(obs.PidHost, "host (wall clock)")
		t.NameProcess(obs.PidCMS, "cms (VLIW cycles as µs)")
		t.NameProcess(obs.PidSim, "cluster (virtual seconds as s; tid = rank)")
		d.Run.Tracer = t
	}
	if d.DebugAddr != "" {
		d.startDebugServer()
	}
	return nil
}

// startDebugServer serves pprof (via the net/http/pprof side effect on
// the default mux) plus a plain-text runtime/metrics dump and the live
// snapshot, on a best-effort background listener.
func (d *Driver) startDebugServer() {
	mux := http.DefaultServeMux
	mux.HandleFunc("/debug/runtime-metrics", func(w http.ResponseWriter, _ *http.Request) {
		descs := metrics.All()
		samples := make([]metrics.Sample, len(descs))
		for i, de := range descs {
			samples[i].Name = de.Name
		}
		metrics.Read(samples)
		sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
		for _, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
			case metrics.KindFloat64:
				fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
			}
		}
	})
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		snap := d.Run.Snap
		snap.Gather(cpu.CalibMemoSource())
		snap.Gather(treecode.ListTelemetry())
		snap.Gather(nbody.RungTelemetry())
		_ = snap.WriteJSON(w)
	})
	d.debugSrv = &http.Server{Addr: d.DebugAddr, Handler: mux}
	go func() {
		if err := d.debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "%s: debug server: %v\n", d.Name, err)
		}
	}()
}

// SpecEngine returns the driver's force-engine flags as the spec API's
// engine selection, unresolved: the spec's own normalization fills the
// default engine and error budget, so CLI and HTTP submissions of the
// same selection hash alike.
func (d *Driver) SpecEngine() EngineSpec {
	return EngineSpec{Engine: d.EngineName, ErrorBudget: d.ErrorBudget}
}

// RunSpec canonicalizes, validates and executes a spec on the driver's
// Run, printing its text rendering — the shared experiment path every
// cmd driver funnels through.
func (d *Driver) RunSpec(s ExperimentSpec) (*SpecResult, error) {
	res, err := RunSpec(d.Run, s)
	if err != nil {
		return nil, err
	}
	d.Textf("%s", res.Text)
	return res, nil
}

// Textf prints human-readable output — only in the default text format,
// so -format json emits nothing but the snapshot envelope on stdout.
func (d *Driver) Textf(format string, a ...any) {
	if d.Format == "text" {
		fmt.Printf(format, a...)
	}
}

// Finish gathers the process-wide sources, writes the requested
// artifacts, and (for -format json) prints the snapshot envelope to
// stdout. Call once, after the experiments.
func (d *Driver) Finish() error {
	d.Run.Snap.Gather(cpu.CalibMemoSource())
	d.Run.Snap.Gather(treecode.ListTelemetry())
	d.Run.Snap.Gather(nbody.RungTelemetry())
	if d.ObsJSON != "" {
		if err := writeFileWith(d.ObsJSON, d.Run.Snap.WriteJSON); err != nil {
			return fmt.Errorf("%s: obs-json: %w", d.Name, err)
		}
	}
	if d.ObsCSV != "" {
		if err := writeFileWith(d.ObsCSV, d.Run.Snap.WriteCSV); err != nil {
			return fmt.Errorf("%s: obs-csv: %w", d.Name, err)
		}
	}
	if d.TracePath != "" && d.Run.Tracer != nil {
		if err := writeFileWith(d.TracePath, d.Run.Tracer.WriteJSON); err != nil {
			return fmt.Errorf("%s: trace: %w", d.Name, err)
		}
	}
	if d.Format == "json" {
		if err := d.Run.Snap.WriteJSON(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if d.debugSrv != nil {
		_ = d.debugSrv.Close()
	}
	return nil
}

// Check aborts the driver on error with a uniform message.
func (d *Driver) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
		os.Exit(1)
	}
}

func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
