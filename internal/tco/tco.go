// Package tco implements the paper's §4 cost model:
//
//	TCO = AC + OC
//	AC  = HWC + SWC                  (acquisition: hardware + software)
//	OC  = SAC + PCC + SCC + DTC      (operating: admin, power+cooling,
//	                                  space, downtime)
//
// and the metrics built on it: ToPPeR (Total Price-Performance Ratio),
// performance/space, and performance/power. Defaults reproduce Table 5's
// assumptions: $100/hour administration, $0.10/kWh electricity with half
// a watt of cooling per watt dissipated, $100 per square foot per year of
// floor space, $5.00 per CPU-hour of downtime, over a four-year
// operational lifetime.
package tco

import (
	"fmt"

	"repro/internal/cluster"
)

// Rates are the institution-level cost constants.
type Rates struct {
	AdminPerHour       float64 // $/hour of sysadmin labour
	ElectricityPerKWh  float64 // $/kWh
	SpacePerSqFtYear   float64 // $/ft²/year leased machine-room space
	DowntimePerCPUHour float64 // $/CPU-hour of lost service
	Years              float64 // operational lifetime
}

// PaperRates returns the constants the paper's Table 5 uses.
func PaperRates() Rates {
	return Rates{
		AdminPerHour:       100,
		ElectricityPerKWh:  0.10,
		SpacePerSqFtYear:   100,
		DowntimePerCPUHour: 5,
		Years:              4,
	}
}

// Validate checks the rates.
func (r Rates) Validate() error {
	if r.Years <= 0 {
		return fmt.Errorf("tco: non-positive lifetime")
	}
	if r.AdminPerHour < 0 || r.ElectricityPerKWh < 0 || r.SpacePerSqFtYear < 0 || r.DowntimePerCPUHour < 0 {
		return fmt.Errorf("tco: negative rate")
	}
	return nil
}

// AdminProfile captures how a cluster is administered.
type AdminProfile struct {
	// SetupHours is the one-time integration/installation labour.
	SetupHours float64
	// AnnualLabourUSD is recurring admin labour + materials per year
	// (the paper: ~$15K/year for a traditional Beowulf serving small
	// application teams).
	AnnualLabourUSD float64
	// AnnualRepairUSD covers expected replacement hardware + swap labour
	// per year (the paper charges the Bladed Beowulf $1200/year for one
	// assumed node failure).
	AnnualRepairUSD float64
}

// TraditionalAdmin is the paper's traditional-Beowulf profile.
func TraditionalAdmin() AdminProfile {
	return AdminProfile{SetupHours: 40, AnnualLabourUSD: 14000, AnnualRepairUSD: 0}
}

// BladeAdmin is the paper's Bladed-Beowulf profile: a 2.5-hour initial
// assembly/installation/configuration, then $1200/year for one expected
// failure (hardware + labour), with the bundled management software doing
// the diagnosis.
func BladeAdmin() AdminProfile {
	return AdminProfile{SetupHours: 2.5, AnnualLabourUSD: 0, AnnualRepairUSD: 1200}
}

// OutageProfile captures expected downtime.
type OutageProfile struct {
	OutagesPerYear float64
	HoursPerOutage float64
	// WholeCluster: a failure idles every CPU (no hot-swap, manual
	// diagnosis); otherwise only the failed node is down.
	WholeCluster bool
}

// TraditionalOutages is the paper's anecdote: "a failure and subsequent
// four-hour outage (on average) every two months", taking the whole
// cluster down.
func TraditionalOutages() OutageProfile {
	return OutageProfile{OutagesPerYear: 6, HoursPerOutage: 4, WholeCluster: true}
}

// BladeOutages is the paper's blade assumption: one failure per year,
// diagnosed in an hour with the management software, only the failed
// blade down.
func BladeOutages() OutageProfile {
	return OutageProfile{OutagesPerYear: 1, HoursPerOutage: 1, WholeCluster: false}
}

// Config describes one cluster's cost situation.
type Config struct {
	Name           string
	AcquisitionUSD float64 // HWC + SWC
	Cluster        *cluster.Cluster
	Admin          AdminProfile
	Outages        OutageProfile
}

// Breakdown is Table 5's row set for one cluster.
type Breakdown struct {
	Acquisition  float64
	SysAdmin     float64 // SAC
	PowerCooling float64 // PCC
	Space        float64 // SCC
	Downtime     float64 // DTC
}

// TCO returns the total cost of ownership.
func (b Breakdown) TCO() float64 {
	return b.Acquisition + b.SysAdmin + b.PowerCooling + b.Space + b.Downtime
}

// Compute evaluates the cost model.
func Compute(cfg Config, r Rates) (Breakdown, error) {
	var b Breakdown
	if err := r.Validate(); err != nil {
		return b, err
	}
	if cfg.Cluster == nil {
		return b, fmt.Errorf("tco: %s: nil cluster", cfg.Name)
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return b, err
	}
	if cfg.AcquisitionUSD < 0 {
		return b, fmt.Errorf("tco: %s: negative acquisition cost", cfg.Name)
	}

	b.Acquisition = cfg.AcquisitionUSD

	// SAC = Σ labour + Σ recurring material costs.
	b.SysAdmin = cfg.Admin.SetupHours*r.AdminPerHour +
		r.Years*(cfg.Admin.AnnualLabourUSD+cfg.Admin.AnnualRepairUSD)

	// PCC: total (compute + cooling) power over the lifetime.
	hours := r.Years * 8760
	b.PowerCooling = cfg.Cluster.TotalPowerKW() * hours * r.ElectricityPerKWh

	// SCC: leased floor space.
	b.Space = cfg.Cluster.FootprintSqFt() * r.SpacePerSqFtYear * r.Years

	// DTC: lost CPU-hours billed at the centre's rate.
	outageHours := cfg.Outages.OutagesPerYear * cfg.Outages.HoursPerOutage * r.Years
	cpusDown := 1.0
	if cfg.Outages.WholeCluster {
		cpusDown = float64(cfg.Cluster.Nodes)
	}
	b.Downtime = outageHours * cpusDown * r.DowntimePerCPUHour

	return b, nil
}

// ToPPeR is the paper's Total Price-Performance Ratio: TCO dollars per
// Mflops of delivered performance. Lower is better.
func ToPPeR(tcoUSD, gflops float64) float64 {
	if gflops <= 0 {
		return 0
	}
	return tcoUSD / (gflops * 1000)
}

// PricePerf is the traditional acquisition-price/performance ratio
// ($/Mflops), for contrast with ToPPeR.
func PricePerf(acquisitionUSD, gflops float64) float64 {
	if gflops <= 0 {
		return 0
	}
	return acquisitionUSD / (gflops * 1000)
}

// PerfPerSpace returns Mflops per square foot (Table 6).
func PerfPerSpace(gflops, sqft float64) float64 {
	if sqft <= 0 {
		return 0
	}
	return gflops * 1000 / sqft
}

// PerfPerPower returns Gflops per kilowatt (Table 7).
func PerfPerPower(gflops, kw float64) float64 {
	if kw <= 0 {
		return 0
	}
	return gflops / kw
}
