// Package cluster models the physical side of the paper's machines: nodes
// composed into blades, chassis, and racks, with power draw, footprint,
// thermal behaviour, and the reliability rule the paper quotes —
// "unpublished (but reliable) empirical data from two leading vendors
// indicates that the failure rate of a component doubles for every
// 10 °C increase in temperature." These attributes feed the TCO model
// (Table 5) and the performance/space and performance/power metrics
// (Tables 6 and 7).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// NodeSpec is one compute node's physical parameters.
type NodeSpec struct {
	Name string
	// CPUModel names the processor (ties into internal/cpu specs).
	CPUModel string
	// WattsLoad is the whole-node draw under load (CPU, memory, disk,
	// NIC), in watts.
	WattsLoad float64
	// RequiresActiveCooling: traditional nodes need ~0.5 W of cooling per
	// watt dissipated; fanless blades do not (paper §4.1).
	RequiresActiveCooling bool
}

// Paper-grade node specs (§4.1's power figures: a complete P4 node draws
// ~85 W under load; a TM5600 blade node ~17 W so that 24 nodes dissipate
// 0.4 kW).
var (
	NodeTM5600 = NodeSpec{Name: "RLX ServerBlade (TM5600)", CPUModel: "TM5600", WattsLoad: 17, RequiresActiveCooling: false}
	NodeTM5800 = NodeSpec{Name: "RLX ServerBlade (TM5800)", CPUModel: "TM5800", WattsLoad: 15, RequiresActiveCooling: false}
	NodeP4     = NodeSpec{Name: "Pentium 4 node", CPUModel: "P4-1300", WattsLoad: 85, RequiresActiveCooling: true}
	NodePIII   = NodeSpec{Name: "Pentium III node", CPUModel: "PIII-500", WattsLoad: 45, RequiresActiveCooling: true}
	NodeAthlon = NodeSpec{Name: "Athlon node", CPUModel: "AthlonMP-1200", WattsLoad: 50, RequiresActiveCooling: true}
	NodeAlpha  = NodeSpec{Name: "Alpha EV56 node", CPUModel: "AlphaEV56-533", WattsLoad: 90, RequiresActiveCooling: true}
	// NodePower3 is a workstation-class RS/6000 node (Table 1's fifth
	// CPU): fast, hot and priced like a workstation, which is exactly
	// the trade-off the design-space optimizer exists to expose.
	NodePower3 = NodeSpec{Name: "Power3 node", CPUModel: "Power3-375", WattsLoad: 140, RequiresActiveCooling: true}
)

// Packaging describes how nodes are aggregated physically.
type Packaging struct {
	Name string
	// NodesPerChassis and the chassis' rack-unit height.
	NodesPerChassis int
	ChassisU        int
	// RackU is usable rack units per rack; FootprintPerRack is the floor
	// space one rack (with service clearance) occupies, in square feet.
	RackU            int
	FootprintPerRack float64
	// ChassisOverheadWatts covers the chassis' shared infrastructure
	// (power supplies, management and network-connect cards).
	ChassisOverheadWatts float64
}

// BladePackaging is the RLX System 324: 24 blades in a 3U chassis,
// ten chassis per 42U rack, six square feet of floor per rack.
func BladePackaging() Packaging {
	return Packaging{
		Name:                 "RLX System 324 (bladed)",
		NodesPerChassis:      24,
		ChassisU:             3,
		RackU:                42,
		FootprintPerRack:     6,
		ChassisOverheadWatts: 120,
	}
}

// TraditionalPackaging is a 2001-era tower/shelf cluster: 24 nodes per
// 20 ft² bay including service clearance, scaling linearly with node
// count, exactly as the paper's §4.1 space figures do (20 ft² at 24
// nodes, 200 ft² at 240).
func TraditionalPackaging() Packaging {
	return Packaging{
		Name:             "traditional rackmount",
		NodesPerChassis:  1,
		ChassisU:         1,
		RackU:            24,
		FootprintPerRack: 20,
		// The paper's per-node wattages are complete-node figures, so the
		// traditional config carries no separate chassis overhead.
		ChassisOverheadWatts: 0,
	}
}

// Cluster is a complete machine.
type Cluster struct {
	Name     string
	Node     NodeSpec
	Pack     Packaging
	Nodes    int
	AmbientC float64 // machine-room ambient temperature, °C
}

// New builds a cluster and validates it.
func New(name string, node NodeSpec, pack Packaging, nodes int, ambientC float64) (*Cluster, error) {
	c := &Cluster{Name: name, Node: node, Pack: pack, Nodes: nodes, AmbientC: ambientC}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the configuration.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: %s: no nodes", c.Name)
	}
	if c.Node.WattsLoad <= 0 {
		return fmt.Errorf("cluster: %s: node draws no power", c.Name)
	}
	if c.Pack.NodesPerChassis <= 0 || c.Pack.ChassisU <= 0 || c.Pack.RackU <= 0 {
		return fmt.Errorf("cluster: %s: bad packaging %+v", c.Name, c.Pack)
	}
	if c.Pack.FootprintPerRack <= 0 {
		return fmt.Errorf("cluster: %s: no footprint", c.Name)
	}
	return nil
}

// Chassis returns the chassis count.
func (c *Cluster) Chassis() int {
	return (c.Nodes + c.Pack.NodesPerChassis - 1) / c.Pack.NodesPerChassis
}

// Racks returns the rack count.
func (c *Cluster) Racks() int {
	perRack := c.Pack.RackU / c.Pack.ChassisU
	if perRack < 1 {
		perRack = 1
	}
	return (c.Chassis() + perRack - 1) / perRack
}

// FootprintSqFt returns floor space in square feet.
func (c *Cluster) FootprintSqFt() float64 {
	return float64(c.Racks()) * c.Pack.FootprintPerRack
}

// ComputePowerKW is the IT load: nodes plus chassis overhead, in kW.
func (c *Cluster) ComputePowerKW() float64 {
	w := float64(c.Nodes)*c.Node.WattsLoad + float64(c.Chassis())*c.Pack.ChassisOverheadWatts
	return w / 1000
}

// CoolingPowerKW is the cooling draw: the paper charges half a watt of
// cooling per watt dissipated for traditional clusters and none for the
// fanless blades.
func (c *Cluster) CoolingPowerKW() float64 {
	if !c.Node.RequiresActiveCooling {
		return 0
	}
	return 0.5 * c.ComputePowerKW()
}

// TotalPowerKW is compute plus cooling.
func (c *Cluster) TotalPowerKW() float64 {
	return c.ComputePowerKW() + c.CoolingPowerKW()
}

// --- Reliability ---

// ReliabilityParams hold the failure model's constants.
type ReliabilityParams struct {
	// BaseMTBFHours is a node's mean time between failures at BaseTempC.
	BaseMTBFHours float64
	BaseTempC     float64
	// RepairHours is the mean outage per failure (diagnosis + swap).
	RepairHours float64
	// WholeClusterOutage: the paper's conservative assumption that a
	// single failure takes the whole cluster down for the repair period.
	WholeClusterOutage bool
}

// DefaultReliability reproduces the paper's anecdotes: a traditional
// Beowulf in a 75 °F (≈24 °C) office sees "a failure and subsequent
// four-hour outage (on average) every two months". The baseline is
// anchored at the *component* temperature of such a node (≈45 °C for an
// 85 W node in a 24 °C room under this package's thermal model), so that
// the 24-node traditional cluster lands at six failures per year.
func DefaultReliability() ReliabilityParams {
	return ReliabilityParams{
		BaseMTBFHours:      24 * 1460, // one failure per 2 months across 24 nodes
		BaseTempC:          45,
		RepairHours:        4,
		WholeClusterOutage: true,
	}
}

// NodeTempC estimates component temperature: ambient plus a rise
// proportional to node power (hot components run well above ambient; a
// dense 85 W node runs hotter than a 17 W blade).
func (c *Cluster) NodeTempC() float64 {
	const riseCPerWatt = 0.25
	return c.AmbientC + riseCPerWatt*c.Node.WattsLoad
}

// FailureRateMultiplier applies the paper's doubling-per-10 °C rule
// relative to the reliability baseline temperature.
func (c *Cluster) FailureRateMultiplier(r ReliabilityParams) float64 {
	return math.Pow(2, (c.NodeTempC()-r.BaseTempC)/10)
}

// ExpectedFailuresPerYear returns the cluster-wide failure rate. A
// degenerate reliability model (non-positive MTBF) yields zero rather
// than a division by zero, so an optimizer sweep over hand-built
// parameters cannot push NaN or Inf into a cost frontier.
func (c *Cluster) ExpectedFailuresPerYear(r ReliabilityParams) float64 {
	if r.BaseMTBFHours <= 0 {
		return 0
	}
	perNodeRate := c.FailureRateMultiplier(r) / r.BaseMTBFHours // failures/hour
	return perNodeRate * float64(c.Nodes) * 8760
}

// ExpectedDowntimeHoursPerYear returns cluster outage hours per year
// under the paper's whole-cluster-outage assumption.
func (c *Cluster) ExpectedDowntimeHoursPerYear(r ReliabilityParams) float64 {
	if !r.WholeClusterOutage {
		return 0
	}
	return c.ExpectedFailuresPerYear(r) * r.RepairHours
}

// Availability returns the expected fraction of the year the cluster is
// up.
func (c *Cluster) Availability(r ReliabilityParams) float64 {
	down := c.ExpectedDowntimeHoursPerYear(r)
	return 1 - down/8760
}

// --- Failure-injection simulation ---

// FailureSim runs a reliability simulation over `years` and returns
// observed failures and downtime hours. It exists to validate the
// closed-form expectations above and to support failure-injection
// tests. Each node runs a Poisson failure clock: it keeps its next
// failure time and the order in which that time was drawn, and the
// earliest (time, draw order) fires next, drawing that node's following
// failure from the shared RNG.
func (c *Cluster) FailureSim(r ReliabilityParams, years float64, seed uint64) (failures int, downtimeHours float64) {
	rng := sim.NewRNG(seed)
	horizon := years * 8760
	perNodeMTBF := r.BaseMTBFHours / c.FailureRateMultiplier(r)
	// Degenerate inputs (zero/negative MTBF, or a multiplier driven to
	// Inf) would make every exponential draw zero — a failure storm
	// pinned at t=0 that never advances. Report zero failures instead.
	if !(perNodeMTBF > 0) || math.IsInf(perNodeMTBF, 0) || c.Nodes <= 0 {
		return 0, 0
	}

	type clock struct {
		at   float64
		draw uint64
	}
	nodes := make([]clock, c.Nodes)
	var draws uint64
	for n := range nodes {
		nodes[n] = clock{at: rng.Exp(perNodeMTBF), draw: draws}
		draws++
	}
	for {
		next := &nodes[0]
		for n := range nodes {
			if nd := &nodes[n]; nd.at < next.at || nd.at == next.at && nd.draw < next.draw {
				next = nd
			}
		}
		if next.at > horizon {
			return failures, downtimeHours
		}
		failures++
		downtimeHours += r.RepairHours
		*next = clock{at: next.at + rng.Exp(perNodeMTBF), draw: draws}
		draws++
	}
}
