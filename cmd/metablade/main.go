// Command metablade regenerates the paper's evaluation: every table
// (1–7) and Figure 3, from the simulated Bladed Beowulf and its
// comparison machines.
//
// Usage:
//
//	metablade -table 1        # one table
//	metablade -figure 3       # the N-body density rendering
//	metablade -all            # everything
//	metablade -table 3 -class W
//	metablade -table 2 -particles 60000
//	metablade -table 2 -procs 1   # run the sweep's worlds one at a time
//	metablade -table 2 -fabric fattree
//	metablade -obs-json out.json -trace out.trace
//
// Table 2's independent per-CPU-count worlds run concurrently on the
// host pool, -procs wide; rows and snapshot samples are bit-identical
// at any width. -fabric selects the
// interconnect topology (star, fattree, torus2d, torus3d), which
// changes simulated times.
//
// With an observability output requested (-obs-json, -obs-csv, -trace,
// or -format json) and no explicit table or figure selection, metablade
// runs Tables 1 and 2 — the instrumented microkernel and scalability
// experiments whose CMS, MPI and treecode counters populate the
// snapshot.
//
// The flags are a thin parse layer: every selection constructs a
// core.ExperimentSpec and runs it through the unified experiment API —
// the same specs the gridd gateway accepts as JSON.
package main

import (
	"flag"
	"os"

	"repro/internal/core"
)

func main() {
	d := core.NewDriver("metablade")
	table := flag.Int("table", 0, "table number to regenerate (1..7)")
	figure := flag.Int("figure", 0, "figure number to regenerate (3)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	class := flag.String("class", "W", "NPB class for table 3 (S, W, A)")
	particles := flag.Int("particles", 0, "particle count override for table 2 / figure 3")
	fabric := flag.String("fabric", "", "table 2 interconnect topology: star (default), fattree, torus2d, torus3d")
	flag.Parse()
	d.Check(d.Setup())

	table2Spec := func() *core.Table2Spec {
		return &core.Table2Spec{
			Particles:      *particles,
			EngineSpec:     d.SpecEngine(),
			FabricModeSpec: core.FabricModeSpec{Fabric: *fabric},
		}
	}
	runSpec := func(s core.ExperimentSpec) {
		_, err := d.RunSpec(s)
		d.Check(err)
	}

	wantObs := d.ObsJSON != "" || d.ObsCSV != "" || d.TracePath != "" || d.Format == "json"
	if !*all && *table == 0 && *figure == 0 {
		if !wantObs {
			flag.Usage()
			os.Exit(2)
		}
		// Observability-only invocation: run the two instrumented
		// experiments that exercise CMS, MPI and the treecode.
		runSpec(&core.Table1Spec{})
		runSpec(table2Spec())
		d.Check(d.Finish())
		return
	}
	run := func(n int) bool { return *all || *table == n }

	if run(1) {
		runSpec(&core.Table1Spec{})
	}
	if run(2) {
		runSpec(table2Spec())
	}
	if run(3) {
		runSpec(&core.Table3Spec{Class: *class})
	}
	if run(4) {
		runSpec(&core.Table4Spec{})
	}
	if run(5) {
		runSpec(&core.Table5Spec{})
		runSpec(&core.ToPPeRSpec{})
	}
	if run(6) || run(7) {
		runSpec(&core.SpacePowerSpec{Table6: run(6), Table7: run(7)})
	}
	if *all || *figure == 3 {
		runSpec(&core.Figure3Spec{Particles: *particles, EngineSpec: d.SpecEngine()})
	}
	d.Check(d.Finish())
}
