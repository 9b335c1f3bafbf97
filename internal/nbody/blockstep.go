package nbody

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/par"
)

// Hierarchical block timesteps (the scheme of GADGET and the
// production treecodes): each particle is assigned a power-of-two
// timestep rung from a local accuracy criterion — rung r advances
// with dt_r = DT/2^r — and one base step of size DT runs 2^MaxRung
// synchronized ticks of the finest step h. A particle on rung r
// opens a kick-drift-kick substep every 2^(MaxRung-r) ticks, drifts
// with everyone at every tick (positions stay synchronized, so force
// evaluations need no prediction), and closes — with a fresh force
// evaluation restricted to the closing rungs — at its substep
// boundaries. Slow halo particles on coarse rungs stop paying for the
// dense core's force updates, which is where the multiplicative
// speedup over uniform stepping at the finest dt comes from.

// ActiveForcer is a Forcer that can restrict a force computation to an
// active subset of targets: when active is non-nil, only particles
// with active[i] true get their accelerations recomputed; the rest
// keep their previous values. Sources always cover every particle at
// its current position. A nil mask must be equivalent to Forces.
type ActiveForcer interface {
	Forcer
	ForcesActive(s *System, active []bool) error
}

// ForcesActive implements ActiveForcer for direct summation: the
// DirectForces loop over the active targets only, on the process-wide
// worker pool.
func (DirectForcer) ForcesActive(s *System, active []bool) error {
	s.directForces(par.Default(), active)
	return nil
}

// MaxRungLimit bounds the rung hierarchy: 2^12 ticks per base step is
// far beyond any sane DT choice.
const MaxRungLimit = 12

// DefaultEta is the dimensionless accuracy parameter of the timestep
// criterion dt_i = Eta·sqrt(Eps/|a_i|) (Eta/sqrt(|a_i|) when the
// softening is zero) — the standard collisionless choice.
const DefaultEta = 0.05

// BlockConfig configures a block-timestep integration.
type BlockConfig struct {
	// DT is the base (coarsest, rung-0) timestep.
	DT float64
	// MaxRung bounds the hierarchy: the finest step is DT/2^MaxRung.
	// MaxRung = 0 degenerates to plain uniform Leapfrog, bit for bit.
	MaxRung int
	// Eta scales the accuracy criterion (0 = DefaultEta).
	Eta float64
}

// RungStats accumulates block-timestep work accounting across Run
// calls.
type RungStats struct {
	// BaseSteps and Substeps count base steps and finest-resolution
	// ticks processed.
	BaseSteps, Substeps uint64
	// Updates counts per-particle force recomputations; Saved counts
	// the updates a uniform integrator at the finest dt would have done
	// on top of that (n per tick in total).
	Updates, Saved uint64
	// Kicks counts half-kicks applied.
	Kicks uint64
	// MaxRungUsed is the highest rung any particle ever occupied.
	MaxRungUsed int
}

// BlockStepper integrates a system with hierarchical block timesteps.
// The zero value is ready; rung and mask storage is reused across Run
// calls, so steady-state stepping allocates nothing in the integrator.
type BlockStepper struct {
	Stats RungStats

	rungs []int8
	mask  []bool
}

// Rungs returns the current rung assignment (live storage, valid until
// the next Run call).
func (b *BlockStepper) Rungs() []int8 { return b.rungs }

// Histogram returns the particle count per rung 0..MaxRungUsed.
func (b *BlockStepper) Histogram() []int {
	h := make([]int, b.Stats.MaxRungUsed+1)
	for _, r := range b.rungs {
		h[r]++
	}
	return h
}

// rungTarget maps a particle's current acceleration to its desired
// rung: the smallest r with DT/2^r at or below the criterion step.
func rungTarget(s *System, i int, cfg *BlockConfig) int8 {
	ax, ay, az := s.AX[i], s.AY[i], s.AZ[i]
	a := math.Sqrt(ax*ax + ay*ay + az*az)
	if a == 0 {
		return 0
	}
	var dt float64
	if s.Eps > 0 {
		dt = cfg.Eta * math.Sqrt(s.Eps/a)
	} else {
		dt = cfg.Eta / math.Sqrt(a)
	}
	var r int8
	step := cfg.DT
	for step > dt && int(r) < cfg.MaxRung {
		step *= 0.5
		r++
	}
	return r
}

// Run advances the system by steps base steps of size cfg.DT. With
// MaxRung = 0 the schedule, the force calls and the arithmetic are
// exactly Leapfrog's, so results are bit-identical to it; with
// MaxRung > 0 the forcer must implement ActiveForcer and only closing
// rungs get force updates. Rungs may rise freely at a particle's own
// substep boundaries (finer substeps are always aligned); they fall
// only to boundaries the synchronized schedule has actually reached,
// so the hierarchy never desynchronizes.
func (b *BlockStepper) Run(s *System, f Forcer, cfg BlockConfig, steps int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if cfg.DT <= 0 || steps < 0 {
		return fmt.Errorf("nbody: bad dt %v or steps %d", cfg.DT, steps)
	}
	if cfg.MaxRung < 0 || cfg.MaxRung > MaxRungLimit {
		return fmt.Errorf("nbody: MaxRung %d outside [0, %d]", cfg.MaxRung, MaxRungLimit)
	}
	if cfg.Eta <= 0 {
		cfg.Eta = DefaultEta
	}
	af, activeOK := f.(ActiveForcer)
	if !activeOK && cfg.MaxRung > 0 {
		return fmt.Errorf("nbody: %T does not implement ActiveForcer (required for MaxRung > 0)", f)
	}
	n := s.N()
	if cap(b.rungs) < n {
		b.rungs = make([]int8, n)
		b.mask = make([]bool, n)
	}
	b.rungs = b.rungs[:n]
	b.mask = b.mask[:n]
	if err := f.Forces(s); err != nil {
		return err
	}
	maxUsed := b.Stats.MaxRungUsed
	for i := 0; i < n; i++ {
		r := rungTarget(s, i, &cfg)
		b.rungs[i] = r
		if int(r) > maxUsed {
			maxUsed = int(r)
		}
	}
	nt := 1 << cfg.MaxRung
	h := cfg.DT / float64(nt)
	var substeps, updates, saved, kicks uint64
	for step := 0; step < steps; step++ {
		for tick := 0; tick < nt; tick++ {
			// Opening half-kicks for every rung starting a substep here.
			for i := 0; i < n; i++ {
				ntr := nt >> b.rungs[i]
				if tick%ntr == 0 {
					dtr := h * float64(ntr)
					s.VX[i] += 0.5 * dtr * s.AX[i]
					s.VY[i] += 0.5 * dtr * s.AY[i]
					s.VZ[i] += 0.5 * dtr * s.AZ[i]
					kicks++
				}
			}
			// Synchronized drift: everyone moves every tick, so positions
			// are always current and force evaluations need no prediction.
			for i := 0; i < n; i++ {
				s.X[i] += h * s.VX[i]
				s.Y[i] += h * s.VY[i]
				s.Z[i] += h * s.VZ[i]
			}
			// Closing rungs get fresh forces — and only them.
			nclose := 0
			for i := 0; i < n; i++ {
				act := (tick+1)%(nt>>b.rungs[i]) == 0
				b.mask[i] = act
				if act {
					nclose++
				}
			}
			if nclose == n {
				// Everyone closes (always the case at base-step boundaries
				// and for MaxRung = 0): the unmasked path, bit-identical to
				// what Leapfrog would call.
				if err := f.Forces(s); err != nil {
					return err
				}
			} else if nclose > 0 {
				if err := af.ForcesActive(s, b.mask); err != nil {
					return err
				}
			}
			substeps++
			updates += uint64(nclose)
			saved += uint64(n - nclose)
			// Closing half-kicks, then rung reassignment from the fresh
			// accelerations.
			for i := 0; i < n; i++ {
				if !b.mask[i] {
					continue
				}
				r := b.rungs[i]
				ntr := nt >> r
				dtr := h * float64(ntr)
				s.VX[i] += 0.5 * dtr * s.AX[i]
				s.VY[i] += 0.5 * dtr * s.AY[i]
				s.VZ[i] += 0.5 * dtr * s.AZ[i]
				kicks++
				want := rungTarget(s, i, &cfg)
				if want < r {
					// A coarser rung is joined only at one of its own
					// boundaries; until then the particle keeps the finest
					// aligned rung at or above its target.
					for want < r && (tick+1)%(nt>>want) != 0 {
						want++
					}
				}
				b.rungs[i] = want
				if int(want) > maxUsed {
					maxUsed = int(want)
				}
			}
		}
		b.Stats.BaseSteps++
	}
	b.Stats.Substeps += substeps
	b.Stats.Updates += updates
	b.Stats.Saved += saved
	b.Stats.Kicks += kicks
	b.Stats.MaxRungUsed = maxUsed
	rungSubsteps.Add(substeps)
	rungUpdates.Add(updates)
	rungSaved.Add(saved)
	rungKicks.Add(kicks)
	return nil
}

// Block-timestep telemetry on the unified obs layer, package-wide like
// the treecode list counters: hot loops count locally, Run flushes
// once.
var (
	rungReg = obs.NewRegistry()
	// Ticks processed at the finest resolution.
	rungSubsteps = rungReg.Counter("nbody.rung.substeps", "")
	// Per-particle force updates performed.
	rungUpdates = rungReg.Counter("nbody.rung.updates", "")
	// Force updates avoided against uniform stepping at the finest dt.
	rungSaved = rungReg.Counter("nbody.rung.saved", "")
	rungKicks = rungReg.Counter("nbody.rung.kicks", "")
)

// RungTelemetry returns the obs source for the block-timestep
// process-wide counters (live cumulative semantics).
func RungTelemetry() obs.Source { return rungReg }
