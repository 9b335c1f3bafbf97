package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/treecode"
)

// Sizes of the N-body workloads.
const (
	leapfrogN     = 20000
	leapfrogDT    = 0.005
	leapfrogSteps = 1
	blockN        = 8192
	blockDT       = 0.04
	blockMaxRung  = 6
	// errSample is the stride of the particles whose tree force is
	// compared with direct summation for force_rms_err.
	errSample = 10
)

// nbodySetupReps is how many times a run repeats set-up; setup_s is the
// median.
const nbodySetupReps = 9

// setUp makes every system of the rotation from the seed and gives each
// an all-cores forcer with its first full tree build and force
// evaluation, and returns them with the time it took in seconds.
func setUp(c nbodyCase, seed uint64) ([]*nbodyRunner, float64, error) {
	runtime.GC()
	t := time.Now()
	var all []*nbodyRunner
	for k := 0; k < c.systems; k++ {
		r := newRunner(c.ic(systemSeed(seed, k)), 0)
		if err := r.f.Forces(r.s); err != nil {
			return nil, 0, fmt.Errorf("set-up forces: %w", err)
		}
		all = append(all, r)
	}
	return all, time.Since(t).Seconds(), nil
}

// countingForcer wraps the workload's treecode.Forcer from outside: it
// times every force call, counts the targets it updates, and opens a
// benchmark span around each call when tracing.
type countingForcer struct {
	f       *treecode.Forcer
	tr      *obs.Tracer
	inside  time.Duration
	calls   int
	targets int
}

func (c *countingForcer) Forces(s *nbody.System) error { return c.ForcesActive(s, nil) }

func (c *countingForcer) ForcesActive(s *nbody.System, active []bool) error {
	sp := c.tr.Begin(obs.PidHost, 0, "treecode", "forcer")
	t := time.Now()
	err := c.f.ForcesActive(s, active)
	c.inside += time.Since(t)
	sp.End(nil)
	c.calls++
	if active == nil {
		c.targets += s.N()
	} else {
		for _, a := range active {
			if a {
				c.targets++
			}
		}
	}
	return err
}

// nbodyCase is one N-body workload: its initial conditions, how many
// systems a run rotates its ops over, and its op.
type nbodyCase struct {
	ic      func(seed uint64) *nbody.System
	systems int
	op      func(s *nbody.System, f nbody.ActiveForcer, bs *nbody.BlockStepper) error
}

var leapfrogCase = nbodyCase{
	ic:      func(seed uint64) *nbody.System { return nbody.NewPlummer(leapfrogN, 1, seed) },
	systems: 1,
	op: func(s *nbody.System, f nbody.ActiveForcer, _ *nbody.BlockStepper) error {
		return s.Leapfrog(f, leapfrogDT, leapfrogSteps)
	},
}

// A block step's parallel balance depends on where the few active
// particles fall, which differs from one disk to the next by up to 8%
// of the op; rotating over four disks per run keeps that out of the
// run-to-run spread.
var blockstepCase = nbodyCase{
	ic:      func(seed uint64) *nbody.System { return nbody.NewColdDisk(blockN, seed) },
	systems: 4,
	op: func(s *nbody.System, f nbody.ActiveForcer, bs *nbody.BlockStepper) error {
		return bs.Run(s, f, nbody.BlockConfig{DT: blockDT, MaxRung: blockMaxRung}, 1)
	},
}

// nbodyRunner is one integration: a system, its forcer and its stepper,
// and the state every op starts from.
type nbodyRunner struct {
	s, start *nbody.System
	f        *treecode.Forcer
	cf       *countingForcer
	bs       nbody.BlockStepper
}

// rewind puts the system back to the state after set-up, so that every
// op does the same work however many ops the run has done. The forcer
// keeps its tree, which it then maintains across the jump back.
func (r *nbodyRunner) rewind() {
	if r.start == nil {
		r.start = cloneSystem(r.s)
	}
	a, b := r.s, r.start
	for _, p := range [][2][]float64{
		{a.X, b.X}, {a.Y, b.Y}, {a.Z, b.Z}, {a.VX, b.VX}, {a.VY, b.VY}, {a.VZ, b.VZ},
		{a.AX, b.AX}, {a.AY, b.AY}, {a.AZ, b.AZ}, {a.M, b.M},
	} {
		copy(p[0], p[1])
	}
	a.Interactions = b.Interactions
}

func newRunner(s *nbody.System, workers int) *nbodyRunner {
	f := &treecode.Forcer{Workers: workers}
	return &nbodyRunner{s: s, f: f, cf: &countingForcer{f: f}}
}

func cloneSystem(s *nbody.System) *nbody.System {
	c := *s
	for _, p := range []*[]float64{&c.X, &c.Y, &c.Z, &c.VX, &c.VY, &c.VZ, &c.AX, &c.AY, &c.AZ, &c.M} {
		*p = append([]float64(nil), (*p)...)
	}
	return &c
}

// sameState reports whether two systems hold bit-identical particle
// state.
func sameState(a, b *nbody.System) bool {
	pa := [][]float64{a.X, a.Y, a.Z, a.VX, a.VY, a.VZ, a.AX, a.AY, a.AZ}
	pb := [][]float64{b.X, b.Y, b.Z, b.VX, b.VY, b.VZ, b.AX, b.AY, b.AZ}
	for k := range pa {
		for i := range pa[k] {
			if math.Float64bits(pa[k][i]) != math.Float64bits(pb[k][i]) {
				return false
			}
		}
	}
	return a.Interactions == b.Interactions
}

// forceRMSErr is the relative RMS acceleration error of the tree forces
// already in s against direct summation, over every errSample-th
// particle.
func forceRMSErr(s *nbody.System) (float64, error) {
	d := cloneSystem(s)
	active := make([]bool, d.N())
	for i := 0; i < d.N(); i += errSample {
		active[i] = true
	}
	if err := (nbody.DirectForcer{}).ForcesActive(d, active); err != nil {
		return 0, err
	}
	var num, den float64
	for i := 0; i < d.N(); i += errSample {
		dx, dy, dz := s.AX[i]-d.AX[i], s.AY[i]-d.AY[i], s.AZ[i]-d.AZ[i]
		num += dx*dx + dy*dy + dz*dz
		den += d.AX[i]*d.AX[i] + d.AY[i]*d.AY[i] + d.AZ[i]*d.AZ[i]
	}
	return math.Sqrt(num / den), nil
}

// runNBody runs an N-body workload. Each iteration takes the next
// system of the rotation, times one op on its all-cores forcer and the
// same op on a one-worker copy, both from the state after set-up, then
// checks that the two hold bit-identical state (the treecode's
// worker-count contract); a mismatch fails both ops.
func runNBody(c nbodyCase, cfg config) (*outcome, error) {
	// Set-up: initial conditions, then the first full tree build and
	// walk-arena growth, for every system of the rotation. The ops run
	// on this one. Host speed drifts within a run, and a block of
	// repetitions samples one moment of it, so the other repetitions,
	// whose systems are dropped, are spread through the window; any the
	// window leaves over run after it, so every run does the same
	// set-up work.
	all, st, err := setUp(c, cfg.seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{st}
	repeatSetUp := func() error {
		_, st, err := setUp(c, cfg.seed)
		setups = append(setups, st)
		return err
	}
	rmsErr, err := forceRMSErr(all[0].s)
	if err != nil {
		return nil, fmt.Errorf("force error: %w", err)
	}
	var one []*nbodyRunner
	for k := 0; k < c.systems; k++ {
		r := newRunner(c.ic(systemSeed(cfg.seed, k)), 1)
		if err := r.f.Forces(r.s); err != nil {
			return nil, fmt.Errorf("set-up one-worker forces: %w", err)
		}
		one = append(one, r)
	}

	out := &outcome{metrics: map[string]float64{}}
	var tr *obs.Tracer
	if cfg.trace {
		tr = obs.NewTracer()
	}
	var lat, lat1w, latTraced, cpuMS, rssMB []float64
	var alloc, pause float64
	var traced int
	var inside time.Duration
	var calls, targets int
	var cleanSteps, reuseSteps, keysMoved, substeps, updates uint64
	var interactions uint64
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		if len(setups) < nbodySetupReps && time.Since(start) >= time.Duration(len(setups))*window/nbodySetupReps {
			if err := repeatSetUp(); err != nil {
				return nil, err
			}
		}
		a, b := all[i%c.systems], one[i%c.systems]
		// In a traced run every other all-cores op is traced; the
		// untraced ones give the tracing overhead.
		traceOp := cfg.trace && i%2 == 1
		var optr *obs.Tracer
		if traceOp {
			optr = tr
		}
		a.f.Tracer, a.cf.tr = optr, optr
		a.rewind()
		runtime.GC()
		var ms0 runtime.MemStats
		var c0 layerCounters
		if traceOp {
			runtime.ReadMemStats(&ms0)
			c0 = readCounters()
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		in0, calls0, tg0, tot0 := a.cf.inside, a.cf.calls, a.cf.targets, a.f.Total.Interactions()
		cpu0 := cpuTime()
		sp := optr.Begin(obs.PidHost, 0, "op", "nbody")
		t := time.Now()
		errAll := c.op(a.s, a.cf, &a.bs)
		d := time.Since(t)
		sp.End(nil)
		cpuMS = append(cpuMS, ms(cpuTime()-cpu0))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, rss)
		if traceOp {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			alloc += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			pause += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
			latTraced = append(latTraced, ms(d))
			traced++
			inside += a.cf.inside - in0
			calls += a.cf.calls - calls0
			targets += a.cf.targets - tg0
			c1 := readCounters()
			cleanSteps += c1.clean - c0.clean
			reuseSteps += c1.steps - c0.steps
			keysMoved += c1.keys - c0.keys
			substeps += c1.substeps - c0.substeps
			updates += c1.updates - c0.updates
			interactions += a.f.Total.Interactions() - tot0
		} else {
			lat = append(lat, ms(d))
		}

		b.rewind()
		runtime.GC()
		t = time.Now()
		errOne := c.op(b.s, b.cf, &b.bs)
		lat1w = append(lat1w, ms(time.Since(t)))

		out.attempted += 2
		switch {
		case errAll != nil || errOne != nil:
			out.fail(2, "op %d: %v / %v", i, errAll, errOne)
		case !sameState(a.s, b.s):
			out.fail(2, "op %d: all-cores and one-worker states differ", i)
		case math.IsNaN(rmsErr) || math.IsInf(rmsErr, 0):
			out.fail(2, "op %d: force_rms_err is %v", i, rmsErr)
		}
	}
	for len(setups) < nbodySetupReps {
		if err := repeatSetUp(); err != nil {
			return nil, err
		}
	}
	if len(lat) == 0 || len(lat1w) == 0 {
		return nil, fmt.Errorf("no untraced op completed in %gs", cfg.seconds)
	}
	workers := par.Workers()
	p50 := median(lat)
	p50w1 := median(lat1w)
	out.note("op_p50_ms", p50, "ms", fmt.Sprintf("all cores (%d workers), n=%d", workers, len(lat)))
	out.noteTail("op_p90_ms", lat, 0.9, "ms")
	out.note("op_p50_1w_ms", p50w1, "ms", fmt.Sprintf("Forcer.Workers=1, n=%d", len(lat1w)))
	out.note("force_rms_err", rmsErr, "1", fmt.Sprintf("tree vs direct over every %dth particle at the seeded state", errSample))
	if !cfg.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_p50_ms"] = p50
		out.metrics["cpu_ms_per_op"] = median(cpuMS)
		out.metrics["peak_rss_mb"] = median(rssMB)
		return out, nil
	}
	if traced == 0 {
		return nil, fmt.Errorf("no traced op completed in %gs", cfg.seconds)
	}
	stats, err := writeTrace(tr, traceDir, cfg.traceFile)
	if err != nil {
		return nil, err
	}
	n := float64(traced)
	opUS := sum(latTraced) * 1e3
	walkUS := sumSpans(stats, "treecode/forces", false)
	m := out.metrics
	m["treecode.build_ms"] = sumSpans(stats, "treecode/build", false) / 1e3 / n
	m["treecode.walk_ms"] = walkUS / 1e3 / n
	m["treecode.interactions"] = float64(interactions) / n
	m["treecode.interactions_per_us"] = float64(interactions) / walkUS
	if reuseSteps > 0 {
		m["treecode.reuse_clean_share"] = float64(cleanSteps) / float64(reuseSteps)
	}
	m["treecode.keys_moved"] = float64(keysMoved) / n
	m["force_rms_err"] = rmsErr
	m["nbody.integrate_ms"] = (sum(latTraced) - ms(inside)) / n
	m["nbody.forcer_calls"] = float64(calls) / n
	// The share of particle-ticks that got a force update: from the
	// block stepper's counters when it ran, else every force call
	// counts as one tick.
	if substeps > 0 {
		m["nbody.active_share"] = float64(updates) / float64(substeps*uint64(all[0].s.N()))
	} else {
		m["nbody.active_share"] = float64(targets) / float64(calls*all[0].s.N())
	}
	m["op_p50_1w_ms"] = p50w1
	m["par.efficiency"] = p50w1 / (float64(workers) * p50)
	m["go.alloc_mb_per_op"] = alloc / n
	m["go.gc_pause_ms_per_op"] = pause / n
	m["obs.trace_overhead_pct"] = 100 * (median(latTraced)/p50 - 1)
	// Time inside the forcer that neither the Forcer's own build and
	// forces spans cover.
	m["unattributed_share"] = sumSpans(stats, "treecode/forcer", true) / opUS
	out.spans, out.spanOps = stats, traced
	return out, nil
}

// systemSeed derives the seed of the k-th system of a run's rotation.
func systemSeed(seed uint64, k int) uint64 { return seed*16 + uint64(k) }

// layerCounters are the program's process-wide tree-maintenance and
// block-timestep counters.
type layerCounters struct{ steps, clean, keys, substeps, updates uint64 }

func readCounters() layerCounters {
	s := obs.NewSnapshot()
	s.Gather(treecode.ListTelemetry(), nbody.RungTelemetry())
	return layerCounters{
		steps:    s.Counter("treecode.reuse.steps"),
		clean:    s.Counter("treecode.reuse.clean_steps"),
		keys:     s.Counter("treecode.reuse.keys_moved"),
		substeps: s.Counter("nbody.rung.substeps"),
		updates:  s.Counter("nbody.rung.updates"),
	}
}
