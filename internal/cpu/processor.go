package cpu

import (
	"sync/atomic"

	"repro/internal/cms"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vliw"
)

// Processor is a timed execution engine for mini-ISA programs: either a
// hardware superscalar model (Arch) or the full Crusoe simulation
// (CMS + VLIW).
type Processor interface {
	// Name identifies the processor (e.g. "500-MHz Intel Pentium III").
	Name() string
	// ClockMHz is the core clock.
	ClockMHz() float64
	// RunKernel executes the program to completion, timing it.
	RunKernel(p isa.Program, st *isa.State) (RunResult, error)
}

type archProcessor struct{ a *Arch }

// AsProcessor adapts an Arch to the Processor interface.
func (a *Arch) AsProcessor() Processor { return archProcessor{a} }

func (p archProcessor) Name() string      { return p.a.Name }
func (p archProcessor) ClockMHz() float64 { return p.a.ClockMHz }
func (p archProcessor) RunKernel(prog isa.Program, st *isa.State) (RunResult, error) {
	return p.a.Run(prog, st, 0)
}

// Crusoe is the TM5600/TM5800 processor model: the CMS software layer over
// the VLIW engine. Each RunKernel starts with a cold translation cache, as
// a freshly loaded benchmark binary would.
type Crusoe struct {
	ModelName string
	MHz       float64
	Params    cms.Params
	Timing    vliw.Timing
	// Gears enables the tiered CMS pipeline (interpret → quick translate
	// → superblock reoptimize, with translation chaining): RunKernel
	// applies Params.WithGears. A geared model reports a distinct Name so
	// the calibration memo never mixes geared and single-gear cost models.
	Gears bool
	// Tracer, when non-nil, is attached to every CMS machine RunKernel
	// creates, recording the interpret→translate→cache pipeline in the
	// CMS cycle domain (obs.PidCMS).
	Tracer *obs.Tracer
}

// gearsDefault makes newly constructed Crusoe models start with the
// tiered pipeline enabled; the drivers' -gears flag sets it.
var gearsDefault atomic.Bool

// SetGears sets the process-wide default for new Crusoe models (the
// -gears driver flag).
func SetGears(on bool) { gearsDefault.Store(on) }

// GearsDefault reports the process-wide default.
func GearsDefault() bool { return gearsDefault.Load() }

// NewTM5600 returns the 633-MHz TM5600 with CMS 4.2.x-like parameters.
func NewTM5600() *Crusoe {
	return &Crusoe{
		ModelName: "633-MHz Transmeta TM5600",
		MHz:       633,
		Params:    cms.DefaultParams(),
		Timing:    vliw.TM5600Timing(),
		Gears:     GearsDefault(),
	}
}

// NewTM5800 returns the 800-MHz TM5800 with the newer CMS 4.3.x, which the
// paper credits for MetaBlade2's ~50% higher treecode rating: higher
// clock, a hotter-triggering translator, cheaper dispatch, and a slightly
// faster FP pipeline.
func NewTM5800() *Crusoe {
	p := cms.DefaultParams()
	p.HotThreshold = 16
	p.TranslateCostPerInstr = 2400
	p.DispatchCycles = 30
	t := vliw.TM5600Timing()
	t.FDivLatency = 19
	t.FSqrtLatency = 24
	// The higher core clock runs against the same SDRAM: loads cost more
	// cycles than on the TM5600.
	t.LoadLatency = 3
	return &Crusoe{
		ModelName: "800-MHz Transmeta TM5800",
		MHz:       800,
		Params:    p,
		Timing:    t,
		Gears:     GearsDefault(),
	}
}

func (c *Crusoe) Name() string {
	if c.Gears {
		return c.ModelName + " (gears)"
	}
	return c.ModelName
}
func (c *Crusoe) ClockMHz() float64 { return c.MHz }

// runParams returns the CMS parameters RunKernel uses: the model's, with
// the tiered gears applied when enabled.
func (c *Crusoe) runParams() cms.Params {
	if c.Gears {
		return c.Params.WithGears()
	}
	return c.Params
}

// RunKernel runs the program through a fresh CMS instance (cold
// translation cache).
func (c *Crusoe) RunKernel(p isa.Program, st *isa.State) (RunResult, error) {
	m := cms.NewMachine(c.runParams(), c.Timing)
	m.Tracer = c.Tracer
	cycles, tr, err := m.Run(p, st, 0)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{
		Cycles: float64(cycles),
		Trace:  tr,
	}
	cst := m.Stats()
	res.CMS = &cst
	res.Seconds = res.Cycles / (c.MHz * 1e6)
	return res, nil
}
