package designopt

import (
	"fmt"
	"math"

	"repro/internal/netsim"
)

// Workload is the target application mix in machine-independent terms:
// how much arithmetic one timestep costs and how much data each rank
// must exchange per step. Per-CPU speed comes from CPUChoice (Table 1
// rates); the fabric-dependent communication time comes from
// CommSecondsPerStep, the netsim solve NewEvaluator runs once per
// (fabric, node count).
type Workload struct {
	Name string `json:"name"`
	// Particles is the global problem size.
	Particles int `json:"particles"`
	// MflopPerStep is the total arithmetic per timestep, in Mflop.
	MflopPerStep float64 `json:"mflop_per_step"`
	// BytesPerParticle is the locally-essential-tree export volume per
	// boundary particle: positions, masses and multipole moments,
	// summed over the force passes one step makes.
	BytesPerParticle float64 `json:"bytes_per_particle"`
}

// TreecodeWorkload returns the paper's workload: one Warren–Salmon
// treecode timestep at the given problem size. The arithmetic cost
// (~18.5 kflop per particle per step) and the LET export volume
// (448 B per boundary particle across the step's passes) are
// calibrated so the Fast Ethernet star lands in Table 2's measured
// efficiency band (~60% at p=24).
func TreecodeWorkload(particles int) Workload {
	return Workload{
		Name:             fmt.Sprintf("treecode n=%d", particles),
		Particles:        particles,
		MflopPerStep:     0.0185 * float64(particles),
		BytesPerParticle: 448,
	}
}

// Validate checks the workload.
func (w *Workload) Validate() error {
	if w.Particles <= 0 {
		return fmt.Errorf("designopt: workload %q: particles %d", w.Name, w.Particles)
	}
	if !(w.MflopPerStep > 0) || !(w.BytesPerParticle > 0) {
		return fmt.Errorf("designopt: workload %q: mflop_per_step %g, bytes_per_particle %g",
			w.Name, w.MflopPerStep, w.BytesPerParticle)
	}
	return nil
}

// CommSecondsPerStep is the network solve: one treecode step's
// communication time on p ranks of the given (topology-applied)
// fabric. It is deliberately the full closed-form schedule, not a
// single formula — the O(p) locally-essential-tree exchange plus a
// segment-size-tuned broadcast; NewEvaluator solves it once per cell
// of the (fabric, node count) table the evaluation loop reads.
func (w *Workload) CommSecondsPerStep(f *netsim.Fabric, p int) float64 {
	if p <= 1 {
		return 0
	}
	// Per-rank boundary surface: an ORB domain of n/p particles
	// exports ~ (n/p)^(2/3) boundary particles to its neighbours.
	local := float64(w.Particles) / float64(p)
	surface := w.BytesPerParticle * math.Cbrt(local*local)

	// 1. Domain decomposition: bisection bounds allreduce (48 B of
	// box extents) and a barrier, with the library's choice between
	// the classic and recursive-doubling allreduce.
	t := math.Min(f.Allreduce(p, 48), f.AllreduceRecDbl(p, 48)) + f.Barrier(p)

	// 2. Top-of-tree broadcast: every rank needs the root octants
	// before it can request remote cells. Tune the pipelined ring's
	// segment size across the power-of-two range and take the best,
	// against the binomial tree as the fallback.
	const topBytes = 8192
	best := f.Bcast(p, topBytes)
	for seg := 512; seg <= 65536; seg *= 2 {
		if v := f.BcastPipelined(p, topBytes, seg); v < best {
			best = v
		}
	}
	t += best

	// 3. LET exchange: p-1 ring rounds. The imported volume decays
	// with domain distance — the shell at ring distance r is ~r^(1/3)
	// domains away, so its essential surface shrinks by cbrt(r).
	for r := 1; r < p; r++ {
		t += f.PointToPoint(int(surface / math.Cbrt(float64(r))))
	}

	// 4. Work-imbalance fan-in: per-rank interaction counts to rank 0
	// for the next step's cost-zone balancing.
	t += f.FanIn(p, 16)

	// 5. Step diagnostics: energy/momentum allreduce.
	t += math.Min(f.Allreduce(p, 64), f.AllreduceRecDbl(p, 64))
	return t
}

// Efficiency converts a communication time into Table 2-style parallel
// efficiency for a CPU delivering mflops per rank: the step's compute
// time shrinks as 1/p while the communication does not.
func (w *Workload) Efficiency(mflops float64, p int, commSeconds float64) float64 {
	if p <= 1 {
		return 1
	}
	if !(mflops > 0) {
		return 0
	}
	tcomp := w.MflopPerStep / mflops / float64(p)
	return tcomp / (tcomp + commSeconds)
}
