// Package core assembles the paper's systems: the machine registry
// (MetaBlade, MetaBlade2, Green Destiny, Avalon, Loki, and the other
// clusters and supercomputers of Table 4) and the experiment drivers that
// regenerate every table and figure of the evaluation. See DESIGN.md's
// experiment index.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/nbody"
	"repro/internal/treecode"
)

// Machine is one entry of the historical-machine registry.
type Machine struct {
	Name string
	// CPU is the per-processor timing model.
	CPU cpu.Processor
	// Procs is the processor count of the benchmark run.
	Procs int
	// ParallelEff is the treecode's parallel efficiency on the machine's
	// interconnect (historical codes reported 60–90%).
	ParallelEff float64
	// Physical attributes for Tables 6 and 7 (zero if not applicable).
	Cluster *cluster.Cluster
}

// Registry returns Table 4's machines in the paper's row order. Processor
// models come from the cpu package; counts and efficiencies follow the
// published runs.
func Registry() ([]Machine, error) {
	metaBlade, err := cluster.New("MetaBlade", cluster.NodeTM5600, cluster.BladePackaging(), 24, 27)
	if err != nil {
		return nil, err
	}
	metaBlade2, err := cluster.New("MetaBlade2", cluster.NodeTM5800, cluster.BladePackaging(), 24, 27)
	if err != nil {
		return nil, err
	}
	avalon, err := cluster.New("Avalon", cluster.NodeAlpha, avalonPackaging(), 128, 24)
	if err != nil {
		return nil, err
	}
	return []Machine{
		// ccNUMA shared memory keeps the Origin's parallel efficiency
		// well above the Ethernet clusters'.
		{Name: "LANL SGI Origin 2000", CPU: cpu.R10000_250().AsProcessor(), Procs: 64, ParallelEff: 0.92},
		// Half of MetaBlade2's run happened on the SC'01 showroom floor;
		// its efficiency reflects that venue's networking.
		{Name: "SC'01 MetaBlade2", CPU: cpu.NewTM5800(), Procs: 24, ParallelEff: 0.72, Cluster: metaBlade2},
		{Name: "LANL Avalon", CPU: cpu.AlphaEV56_533().AsProcessor(), Procs: 128, ParallelEff: 0.75, Cluster: avalon},
		{Name: "LANL MetaBlade", CPU: cpu.NewTM5600(), Procs: 24, ParallelEff: 0.78, Cluster: metaBlade},
		{Name: "LANL Loki", CPU: cpu.PentiumPro200().AsProcessor(), Procs: 16, ParallelEff: 0.80},
		{Name: "NAS IBM SP-2 (66/W)", CPU: cpu.Power2_66().AsProcessor(), Procs: 128, ParallelEff: 0.85},
		{Name: "SC'96 Loki+Hyglac", CPU: cpu.PentiumPro200().AsProcessor(), Procs: 32, ParallelEff: 0.70},
		{Name: "Sandia ASCI Red", CPU: cpu.PentiumII333().AsProcessor(), Procs: 6800, ParallelEff: 0.60},
		{Name: "Caltech Naegling", CPU: cpu.PentiumPro200().AsProcessor(), Procs: 96, ParallelEff: 0.72},
		{Name: "NRL TMC CM-5E", CPU: cpu.SuperSPARC40().AsProcessor(), Procs: 256, ParallelEff: 0.70},
		{Name: "Sandia ASCI Red ('97)", CPU: cpu.PentiumPro200().AsProcessor(), Procs: 4096, ParallelEff: 0.55},
		{Name: "JPL Cray T3D", CPU: cpu.Alpha21064_150().AsProcessor(), Procs: 256, ParallelEff: 0.75},
	}, nil
}

// avalonPackaging describes Avalon's shelving: 128 Alpha towers over
// about 120 ft².
func avalonPackaging() cluster.Packaging {
	return cluster.Packaging{
		Name:                 "Avalon shelving",
		NodesPerChassis:      1,
		ChassisU:             1,
		RackU:                22, // ~22 towers per 20 ft² bay ⇒ 6 bays ≈ 120 ft²
		FootprintPerRack:     20,
		ChassisOverheadWatts: 0,
	}
}

// TreecodeRate measures a machine's treecode Mflops per processor: a real
// serial treecode run supplies the interaction counts and operation mix,
// and the machine's calibrated processor model supplies the time.
func TreecodeRate(p cpu.Processor, particles int) (mflopsPerProc float64, err error) {
	work, err := measureTreecode(particles)
	if err != nil {
		return 0, err
	}
	return work.rate(p)
}

// treecodeWork is the counted work of one serial treecode force step
// over Plummer(particles, seed 1997): what TreecodeRate prices. It does
// not depend on the processor, so callers rating several processors
// measure it once.
type treecodeWork struct {
	stats   treecode.Stats
	sources int
}

// measureTreecode runs the force step TreecodeRate prices.
func measureTreecode(particles int) (treecodeWork, error) {
	s := nbody.NewPlummer(particles, 1, 1997)
	f := &treecode.Forcer{Theta: 0.7}
	if err := f.Forces(s); err != nil {
		return treecodeWork{}, err
	}
	return treecodeWork{stats: f.LastStats, sources: s.N()}, nil
}

// rate prices the work on p's calibrated costs, in Mflops.
func (w treecodeWork) rate(p cpu.Processor) (float64, error) {
	costs, err := cpu.CalibrateFor(p, cpu.MissRateTree)
	if err != nil {
		return 0, err
	}
	mixTotal := *treecode.InteractionMix()
	mixTotal.Scale(w.stats.Interactions())
	buildTotal := *treecode.BuildMix()
	buildTotal.Scale(uint64(w.sources))
	seconds := costs.Seconds(&mixTotal) + costs.Seconds(&buildTotal)
	if seconds <= 0 {
		return 0, fmt.Errorf("core: zero treecode time for %s", p.Name())
	}
	return float64(w.stats.Flops()) / seconds / 1e6, nil
}

// AvailabilityStudy quantifies Table 5's downtime argument with the
// discrete-event failure simulation: lost CPU-hours over the operational
// lifetime for a blade versus a traditional cluster, under the paper's
// whole-cluster-outage assumption for the traditional machine and
// single-blade outages for the managed chassis.
type AvailabilityStudy struct {
	Name              string
	FailuresPerYear   float64
	LostCPUHours      float64 // over the study period
	Availability      float64
	DowntimeCostUSD   float64 // at the paper's $5/CPU-hour
	EffectiveCapacity float64 // fraction of ideal CPU-hours delivered
}

// StudyAvailability runs the reliability simulation over years and
// returns blade-vs-traditional results.
func StudyAvailability(years float64, seed uint64) ([]AvailabilityStudy, error) {
	rel := cluster.DefaultReliability()
	blade, err := cluster.New("MetaBlade", cluster.NodeTM5600, cluster.BladePackaging(), 24, 27)
	if err != nil {
		return nil, err
	}
	trad, err := cluster.New("traditional (P4)", cluster.NodeP4, cluster.TraditionalPackaging(), 24, 24)
	if err != nil {
		return nil, err
	}
	mk := func(c *cluster.Cluster, wholeCluster bool, repairHours float64) AvailabilityStudy {
		r := rel
		r.RepairHours = repairHours
		fails, down := c.FailureSim(r, years, seed)
		cpusDown := 1.0
		if wholeCluster {
			cpusDown = float64(c.Nodes)
		}
		lost := down * cpusDown
		ideal := years * 8760 * float64(c.Nodes)
		return AvailabilityStudy{
			Name:              c.Name,
			FailuresPerYear:   float64(fails) / years,
			LostCPUHours:      lost,
			Availability:      1 - lost/ideal,
			DowntimeCostUSD:   lost * 5,
			EffectiveCapacity: 1 - lost/ideal,
		}
	}
	// Blade: managed chassis diagnoses in an hour, only the blade is down.
	// Traditional: four-hour whole-cluster outages (paper §4.1).
	return []AvailabilityStudy{
		mk(blade, false, 1),
		mk(trad, true, 4),
	}, nil
}
