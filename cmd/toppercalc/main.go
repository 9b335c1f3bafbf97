// Command toppercalc evaluates the paper's cost model — TCO and ToPPeR —
// for a user-described cluster, so the §4 analysis can be repeated with
// your own numbers. With -optimize it instead sweeps the whole design
// space (CPU × packaging × fabric × node count × ambient) and prints
// the Pareto frontier for ToPPeR, perf/watt and perf/space. The search
// is one serial loop over every candidate.
//
// Usage:
//
//	toppercalc -nodes 24 -watts 85 -acquisition 17000 -gflops 2.8
//	toppercalc -blade -nodes 240 -watts 15 -acquisition 260000 -gflops 36
//	toppercalc -blade -format json
//	toppercalc -optimize
//	toppercalc -optimize -opt-cpus TM5600,Athlon -opt-fabrics fe,ge,ge-fattree -max-power-kw 10
//
// The flags are a thin parse layer over core.TCOSpec and
// core.TopperOptSpec — the same experiment specs the gridd gateway
// accepts as JSON.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// splitCSV parses a comma-separated flag value ("" → nil).
func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitCSV(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitCSV(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	d := core.NewDriver("toppercalc")
	nodes := flag.Int("nodes", 24, "compute node count")
	watts := flag.Float64("watts", 85, "per-node power draw under load (W)")
	acq := flag.Float64("acquisition", 17000, "acquisition cost (hardware + software, $)")
	gflops := flag.Float64("gflops", 2.8, "delivered performance (Gflops)")
	blade := flag.Bool("blade", false, "bladed packaging (RLX-style chassis, no active cooling, managed)")
	ambient := flag.Float64("ambient", 24, "machine-room ambient temperature (°C); an explicit 0 means 0 °C, not the default")
	years := flag.Float64("years", 4, "operational lifetime (years)")
	kwh := flag.Float64("kwh", 0.10, "electricity rate ($/kWh); an explicit 0 means free electricity, not the default")
	space := flag.Float64("space", 100, "floor-space lease rate ($/ft²/year)")
	cpuHour := flag.Float64("cpuhour", 5, "downtime charge ($/CPU-hour)")

	optimize := flag.Bool("optimize", false, "sweep the design space and print the Pareto frontier instead of pricing one cluster")
	optCPUs := flag.String("opt-cpus", "", "optimizer CPU axis, comma-separated (PIII,Alpha,TM5600,Power3,Athlon; empty = all)")
	optPacks := flag.String("opt-packs", "", "optimizer packaging axis (traditional,blade; empty = both)")
	optFabrics := flag.String("opt-fabrics", "", "optimizer fabric axis, base[-topology] (e.g. fe,ge,ge-fattree,ge-torus3d; empty = fe,ge)")
	optNodes := flag.String("opt-nodes", "", "optimizer node-count axis, comma-separated integers (empty = default ladder)")
	optAmbients := flag.String("opt-ambients", "", "optimizer ambient axis, comma-separated °C (empty = 18,24,27,35)")
	optParticles := flag.Int("opt-particles", 0, "optimizer workload size in particles (0 = 60000)")
	maxPowerKW := flag.Float64("max-power-kw", 0, "optimizer budget: max total power in kW (0 = uncapped)")
	maxSpaceSqFt := flag.Float64("max-space-sqft", 0, "optimizer budget: max floor space in ft² (0 = uncapped)")
	maxTCO := flag.Float64("max-tco", 0, "optimizer budget: max TCO in $ (0 = uncapped)")
	flag.Parse()
	d.Check(d.Setup())

	if *optimize {
		optNodesList, err := splitInts(*optNodes)
		d.Check(err)
		optAmbientsList, err := splitFloats(*optAmbients)
		d.Check(err)
		spec := &core.TopperOptSpec{
			CPUs:         splitCSV(*optCPUs),
			Packs:        splitCSV(*optPacks),
			Fabrics:      splitCSV(*optFabrics),
			Nodes:        optNodesList,
			Ambients:     optAmbientsList,
			Particles:    *optParticles,
			MaxPowerKW:   *maxPowerKW,
			MaxSpaceSqFt: *maxSpaceSqFt,
			MaxTCOUSD:    *maxTCO,
			Years:        *years,
			KWh:          kwh,
		}
		_, err = d.RunSpec(spec)
		d.Check(err)
		d.Check(d.Finish())
		return
	}

	_, err := d.RunSpec(&core.TCOSpec{
		Nodes:       *nodes,
		Watts:       *watts,
		Acquisition: *acq,
		Gflops:      *gflops,
		Blade:       *blade,
		Ambient:     ambient,
		Years:       *years,
		KWh:         kwh,
		Space:       *space,
		CPUHour:     *cpuHour,
	})
	d.Check(err)
	d.Check(d.Finish())
}
