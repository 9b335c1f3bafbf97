// Package designopt is the ToPPeR design-space optimizer: a
// deterministic search over cluster designs — CPU model × node count ×
// fabric/topology × packaging × ambient — that evaluates every
// candidate through the existing cluster → tco → netsim models
// against a workload mix (Table 1 per-CPU Mflops × Table 2-style
// parallel efficiency on the candidate fabric) and emits the Pareto
// frontier for the paper's three figures of merit: ToPPeR ($/Mflops,
// minimize), performance per watt (Gflops/kW, maximize) and
// performance per floor space (Mflops/ft², maximize).
//
// The search is one serial loop:
//
//   - NewEvaluator solves the network model once per (fabric, node
//     count) cell into a table, so scoring the O(designs) candidates
//     costs O(fabrics×p) network solves.
//   - Every candidate is scored and inserted into one Frontier. The
//     frontier is the unique non-dominated subset of the candidates,
//     emitted in canonical order, so it is a pure function of the grid.
//   - Scoring a candidate (Evaluator.Eval) allocates nothing, pinned by
//     an AllocsPerRun test.
package designopt

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/tco"
)

// PinnedKarpMflops are the Table 1 Karp-sqrt microkernel rates of the
// five evaluation CPUs, at the simulator's full precision (EXPERIMENTS
// Table 1 prints them rounded to one decimal). The optimizer uses them
// as the per-CPU workload rates so a sweep costs no simulator runs;
// TestPinnedRatesMatchTable1 in internal/core cross-checks them against
// the live microkernel, so they cannot drift from the CPU models.
var PinnedKarpMflops = map[string]float64{
	"PIII":   163.36548713047387,
	"Alpha":  168.17227913107254,
	"TM5600": 181.19897848764228,
	"Power3": 365.22830205166019,
	"Athlon": 269.13701162959472,
}

// CPUChoice is one node option in the design space.
type CPUChoice struct {
	// Name is the short axis label ("TM5600").
	Name string `json:"name"`
	// Node carries the physical node parameters (watts, cooling).
	Node cluster.NodeSpec `json:"-"`
	// MflopsPerCPU is the workload's per-processor rate (Table 1).
	MflopsPerCPU float64 `json:"mflops_per_cpu"`
	// AcqPerNodeUSD is the per-node acquisition cost (Table 5's
	// cluster prices divided by their 24 nodes; the Power3 node is a
	// workstation-class machine priced accordingly).
	AcqPerNodeUSD float64 `json:"acq_per_node_usd"`
}

// DefaultCPUChoices returns the five Table 1 CPUs with their pinned
// microkernel rates, paper node specs and Table 5 per-node prices.
func DefaultCPUChoices() []CPUChoice {
	return []CPUChoice{
		{Name: "PIII", Node: cluster.NodePIII, MflopsPerCPU: PinnedKarpMflops["PIII"], AcqPerNodeUSD: 16000.0 / 24},
		{Name: "Alpha", Node: cluster.NodeAlpha, MflopsPerCPU: PinnedKarpMflops["Alpha"], AcqPerNodeUSD: 17000.0 / 24},
		{Name: "TM5600", Node: cluster.NodeTM5600, MflopsPerCPU: PinnedKarpMflops["TM5600"], AcqPerNodeUSD: 26000.0 / 24},
		{Name: "Power3", Node: cluster.NodePower3, MflopsPerCPU: PinnedKarpMflops["Power3"], AcqPerNodeUSD: 10000},
		{Name: "Athlon", Node: cluster.NodeAthlon, MflopsPerCPU: PinnedKarpMflops["Athlon"], AcqPerNodeUSD: 15000.0 / 24},
	}
}

// ParseCPU resolves a CPU axis name.
func ParseCPU(name string) (CPUChoice, error) {
	for _, c := range DefaultCPUChoices() {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return CPUChoice{}, fmt.Errorf("designopt: unknown cpu %q (want PIII, Alpha, TM5600, Power3 or Athlon)", name)
}

// PackChoice is one packaging option.
type PackChoice struct {
	// Name is the axis label ("traditional", "blade").
	Name string            `json:"name"`
	Pack cluster.Packaging `json:"-"`
	// Blade selects the bladed admin/outage profile: managed chassis,
	// per-failure repair billing, single-node outages.
	Blade bool `json:"blade"`
}

// DefaultPackChoices returns the paper's two packagings.
func DefaultPackChoices() []PackChoice {
	return []PackChoice{
		{Name: "traditional", Pack: cluster.TraditionalPackaging(), Blade: false},
		{Name: "blade", Pack: cluster.BladePackaging(), Blade: true},
	}
}

// ParsePack resolves a packaging axis name.
func ParsePack(name string) (PackChoice, error) {
	for _, p := range DefaultPackChoices() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return PackChoice{}, fmt.Errorf("designopt: unknown packaging %q (want traditional or blade)", name)
}

// FabricChoice is one interconnect option: a base fabric (bandwidth
// class), an optional topology, and the per-node interconnect cost the
// acquisition model charges (NIC + switch-port share; multi-stage
// topologies buy more switches per host).
type FabricChoice struct {
	Name        string         `json:"name"`
	Template    *netsim.Fabric `json:"-"`
	Topology    string         `json:"topology,omitempty"`
	PortCostUSD float64        `json:"port_cost_usd"`
}

// ParseFabric resolves a fabric axis name of the form base[-topology]:
// bases e10 (10 Mb/s Ethernet), fe (Fast Ethernet), ge (Gigabit);
// topologies star (default), fattree, torus2d, torus3d. Examples:
// "fe", "ge", "fe-fattree", "ge-torus3d".
func ParseFabric(name string) (FabricChoice, error) {
	base, topo := strings.ToLower(name), ""
	if i := strings.IndexByte(base, '-'); i >= 0 {
		base, topo = base[:i], base[i+1:]
	}
	fc := FabricChoice{Name: strings.ToLower(name)}
	switch base {
	case "e10":
		fc.Template = netsim.Ethernet10()
		fc.PortCostUSD = 30
	case "fe":
		fc.Template = netsim.FastEthernet()
		fc.PortCostUSD = 100
	case "ge":
		fc.Template = netsim.GigabitEthernet()
		fc.PortCostUSD = 300
	default:
		return fc, fmt.Errorf("designopt: unknown fabric base %q in %q (want e10, fe or ge)", base, name)
	}
	switch topo {
	case "", "star":
		fc.Topology = ""
	case "fattree":
		// A multi-stage fat-tree needs ~2.5x the switch ports per host.
		fc.Topology = "fattree"
		fc.PortCostUSD *= 2.5
	case "torus2d":
		fc.Topology = "torus2d"
		fc.PortCostUSD *= 1.5
	case "torus3d":
		fc.Topology = "torus3d"
		fc.PortCostUSD *= 2
	default:
		return fc, fmt.Errorf("designopt: unknown fabric topology %q in %q (want star, fattree, torus2d or torus3d)", topo, name)
	}
	return fc, nil
}

// DefaultFabricChoices returns the default interconnect axis: the
// paper's Fast Ethernet star and the Gigabit ablation.
func DefaultFabricChoices() []FabricChoice {
	fe, _ := ParseFabric("fe")
	ge, _ := ParseFabric("ge")
	return []FabricChoice{fe, ge}
}

// Budget caps the feasible region. Zero means uncapped; Grid.Validate
// rejects negative caps.
type Budget struct {
	MaxPowerKW   float64 `json:"max_power_kw,omitempty"`
	MaxSpaceSqFt float64 `json:"max_space_sqft,omitempty"`
	MaxTCOUSD    float64 `json:"max_tco_usd,omitempty"`
}

// Grid is the full design space: the cross product of the five axes,
// evaluated against one workload under one set of cost rates.
type Grid struct {
	CPUs     []CPUChoice
	Packs    []PackChoice
	Fabrics  []FabricChoice
	Nodes    []int
	Ambients []float64
	Budget   Budget
	Workload Workload
	Rates    tco.Rates
	Rel      cluster.ReliabilityParams
}

// DefaultGrid returns the product-default design space: the five
// Table 1 CPUs, both packagings, Fast and Gigabit Ethernet stars, node
// counts from a chassis-pair to half a K, and four machine-room
// ambients from chilled to hot-aisle.
func DefaultGrid() *Grid {
	return &Grid{
		CPUs:     DefaultCPUChoices(),
		Packs:    DefaultPackChoices(),
		Fabrics:  DefaultFabricChoices(),
		Nodes:    []int{8, 16, 24, 32, 48, 64, 96, 128, 192, 256},
		Ambients: []float64{18, 24, 27, 35},
		Workload: TreecodeWorkload(60000),
		Rates:    tco.PaperRates(),
		Rel:      cluster.DefaultReliability(),
	}
}

// Candidates returns the enumerable design count.
func (g *Grid) Candidates() int {
	return len(g.CPUs) * len(g.Packs) * len(g.Fabrics) * len(g.Nodes) * len(g.Ambients)
}

// Validate checks the grid. Degenerate CPU choices (zero rate, zero
// watts) are allowed — Eval marks them infeasible instead of letting a
// division produce NaN — but structural emptiness is an error.
func (g *Grid) Validate() error {
	if len(g.CPUs) == 0 || len(g.Packs) == 0 || len(g.Fabrics) == 0 ||
		len(g.Nodes) == 0 || len(g.Ambients) == 0 {
		return fmt.Errorf("designopt: empty grid axis (cpus=%d packs=%d fabrics=%d nodes=%d ambients=%d)",
			len(g.CPUs), len(g.Packs), len(g.Fabrics), len(g.Nodes), len(g.Ambients))
	}
	for _, p := range g.Nodes {
		if p <= 0 {
			return fmt.Errorf("designopt: node count %d", p)
		}
	}
	for _, a := range g.Ambients {
		if a < -273.15 || a != a {
			return fmt.Errorf("designopt: ambient %g°C", a)
		}
	}
	for i := range g.Fabrics {
		if g.Fabrics[i].Template == nil {
			return fmt.Errorf("designopt: fabric %q has no template", g.Fabrics[i].Name)
		}
	}
	if err := g.Rates.Validate(); err != nil {
		return err
	}
	if err := g.Workload.Validate(); err != nil {
		return err
	}
	if g.Budget.MaxPowerKW < 0 || g.Budget.MaxSpaceSqFt < 0 || g.Budget.MaxTCOUSD < 0 {
		return fmt.Errorf("designopt: negative budget %+v", g.Budget)
	}
	return nil
}
