// Command nbodysim runs gravitational N-body simulations with the
// treecode library: serial or on a simulated Bladed Beowulf, direct or
// tree-accelerated, with energy diagnostics and density renderings.
//
// Usage:
//
//	nbodysim -n 20000 -steps 20 -theta 0.7
//	nbodysim -n 2000 -direct -steps 10
//	nbodysim -n 20000 -ic twocluster -steps 20
//	nbodysim -n 20000 -rungs 4 -steps 20
//	nbodysim -n 30000 -ranks 24 -render out.pgm
//	nbodysim -n 10000 -ranks 8 -obs-json obs.json -trace run.trace
//
// Tree forces come from the dual-tree walk; -rungs enables
// hierarchical block timesteps with DT/2^rungs as the finest step
// (serial or -direct runs only).
//
// The flags are a thin parse layer over core.NBodySpec — the same
// experiment spec the gridd gateway accepts as JSON; the rendering
// flags (-render, -ascii) stay host-side, fed by the run's system.
package main

import (
	"flag"
	"os"

	"repro/internal/core"
	"repro/internal/nbody"
)

func main() {
	d := core.NewDriver("nbodysim")
	n := flag.Int("n", 20000, "particle count")
	steps := flag.Int("steps", 10, "leapfrog steps")
	dt := flag.Float64("dt", 0.005, "time step")
	theta := flag.Float64("theta", 0.7, "multipole acceptance parameter")
	direct := flag.Bool("direct", false, "use O(N²) direct summation instead of the treecode")
	quad := flag.Bool("quadrupole", false, "use quadrupole moments")
	ranks := flag.Int("ranks", 0, "simulate a parallel run on this many TM5600 blades (0 = serial)")
	render := flag.String("render", "", "write a PGM density rendering to this file")
	ascii := flag.Bool("ascii", false, "print an ASCII density rendering")
	rungs := flag.Int("rungs", 0, "hierarchical block-timestep rungs (0 = uniform leapfrog; finest step is dt/2^rungs)")
	eta := flag.Float64("eta", 0, "block-timestep accuracy parameter (0 = default)")
	ic := flag.String("ic", "plummer", "initial conditions: plummer, colddisk, or twocluster")
	flag.Parse()
	d.Check(d.Setup())

	res, err := d.RunSpec(&core.NBodySpec{
		N:          *n,
		Steps:      *steps,
		DT:         *dt,
		Theta:      *theta,
		Direct:     *direct,
		Quadrupole: *quad,
		Ranks:      *ranks,
		Rungs:      *rungs,
		Eta:        *eta,
		IC:         *ic,
	})
	d.Check(err)

	if *render != "" || *ascii {
		s := res.Extra.(*nbody.System)
		img, err := nbody.RenderAuto(s, 72, 36)
		d.Check(err)
		if *ascii {
			d.Textf("%s\n", img.ASCII())
		}
		if *render != "" {
			f, err := os.Create(*render)
			d.Check(err)
			d.Check(img.WritePGM(f))
			d.Check(f.Close())
			d.Textf("wrote %s\n", *render)
		}
	}
	d.Check(d.Finish())
}
