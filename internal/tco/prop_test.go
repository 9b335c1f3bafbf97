package tco

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

// The metric invariants the design-space optimizer's dominance bounds
// rest on: ToPPeR and PricePerf fall as delivered performance rises
// and climb with cost; PerfPerSpace and PerfPerPower climb with
// performance and fall as the denominator resource grows. The sweeps
// are deterministic grids rather than random draws so a failure names
// its exact inputs.

func TestToPPeRMonotone(t *testing.T) {
	gflopsGrid := []float64{0.1, 0.5, 1, 2.8, 10, 36, 250}
	costGrid := []float64{1000, 17000, 150000, 2.5e6}
	for _, cost := range costGrid {
		prev := math.Inf(1)
		for _, g := range gflopsGrid {
			v := ToPPeR(cost, g)
			if v <= 0 || v > prev {
				t.Fatalf("ToPPeR(%g, %g) = %g not decreasing in gflops (prev %g)", cost, g, v, prev)
			}
			prev = v
		}
	}
	for _, g := range gflopsGrid {
		prevT, prevP := 0.0, 0.0
		for _, cost := range costGrid {
			vt, vp := ToPPeR(cost, g), PricePerf(cost, g)
			if vt <= prevT || vp <= prevP {
				t.Fatalf("metrics not increasing in cost at gflops=%g: ToPPeR %g→%g, PricePerf %g→%g",
					g, prevT, vt, prevP, vp)
			}
			prevT, prevP = vt, vp
		}
	}
}

func TestPerfPerDenominatorMonotone(t *testing.T) {
	gflopsGrid := []float64{0.5, 2.8, 36, 250}
	denoms := []float64{1, 6, 20, 200}
	for _, d := range denoms {
		prevS, prevP := 0.0, 0.0
		for _, g := range gflopsGrid {
			s, p := PerfPerSpace(g, d), PerfPerPower(g, d)
			if s <= prevS || p <= prevP {
				t.Fatalf("perf metrics not increasing in gflops at denom=%g", d)
			}
			prevS, prevP = s, p
		}
	}
	for _, g := range gflopsGrid {
		prevS, prevP := math.Inf(1), math.Inf(1)
		for _, d := range denoms {
			s, p := PerfPerSpace(g, d), PerfPerPower(g, d)
			if s >= prevS || p >= prevP {
				t.Fatalf("perf metrics not decreasing in denominator at gflops=%g", g)
			}
			prevS, prevP = s, p
		}
	}
}

// TestBreakdownSumInvariant sweeps the cost model across nodes,
// packaging, ambient and rates: TCO() must equal the exact sum of its
// five parts, and every part must be finite and non-negative.
func TestBreakdownSumInvariant(t *testing.T) {
	rates := []Rates{
		PaperRates(),
		{AdminPerHour: 40, ElectricityPerKWh: 0.25, SpacePerSqFtYear: 320, DowntimePerCPUHour: 0.5, Years: 7},
	}
	nodes := []cluster.NodeSpec{cluster.NodeTM5600, cluster.NodeP4, cluster.NodePower3}
	for _, r := range rates {
		for _, node := range nodes {
			for _, blade := range []bool{false, true} {
				for _, n := range []int{1, 24, 240, 1009} {
					pack, admin, out := TraditionalPackaging2(blade)
					cl, err := cluster.New("sweep", node, pack, n, 27)
					if err != nil {
						t.Fatal(err)
					}
					b, err := Compute(Config{Name: "sweep", AcquisitionUSD: 700 * float64(n), Cluster: cl, Admin: admin, Outages: out}, r)
					if err != nil {
						t.Fatal(err)
					}
					sum := b.Acquisition + b.SysAdmin + b.PowerCooling + b.Space + b.Downtime
					if b.TCO() != sum {
						t.Fatalf("TCO() %g != sum of parts %g (%+v)", b.TCO(), sum, b)
					}
					for _, part := range []float64{b.Acquisition, b.SysAdmin, b.PowerCooling, b.Space, b.Downtime} {
						if part < 0 || math.IsNaN(part) || math.IsInf(part, 0) {
							t.Fatalf("non-finite or negative cost part in %+v", b)
						}
					}
				}
			}
		}
	}
}

// TraditionalPackaging2 picks the paper profile set for the sweep.
func TraditionalPackaging2(blade bool) (cluster.Packaging, AdminProfile, OutageProfile) {
	if blade {
		return cluster.BladePackaging(), BladeAdmin(), BladeOutages()
	}
	return cluster.TraditionalPackaging(), TraditionalAdmin(), TraditionalOutages()
}

// TestPaperRatesGolden pins PaperRates against the paper's Table 5/6
// assumptions verbatim: $100/hour administration, $0.10/kWh
// electricity, $100/ft²/year floor space, $5.00/CPU-hour downtime,
// four-year lifetime.
func TestPaperRatesGolden(t *testing.T) {
	want := Rates{AdminPerHour: 100, ElectricityPerKWh: 0.10, SpacePerSqFtYear: 100, DowntimePerCPUHour: 5, Years: 4}
	if got := PaperRates(); got != want {
		t.Fatalf("PaperRates() = %+v, want the paper's Table 5/6 constants %+v", got, want)
	}
	// And the derived Table 5 anchor: the 24-node P4 Beowulf's power+
	// cooling over four years — 24×85 W at 1.5× for cooling, 8760 h/yr,
	// $0.10/kWh — must price out near the paper's ~$10.7K figure.
	cl, err := cluster.New("P4", cluster.NodeP4, cluster.TraditionalPackaging(), 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(Config{Name: "P4", AcquisitionUSD: 17000, Cluster: cl,
		Admin: TraditionalAdmin(), Outages: TraditionalOutages()}, PaperRates())
	if err != nil {
		t.Fatal(err)
	}
	wantPCC := 24 * 85 * 1.5 / 1000.0 * 8760 * 4 * 0.10
	if math.Abs(b.PowerCooling-wantPCC) > 1e-9 {
		t.Fatalf("PCC %g, want %g", b.PowerCooling, wantPCC)
	}
	if b.PowerCooling < 10000 || b.PowerCooling > 11500 {
		t.Fatalf("PCC %g outside the paper's ~$10.7K band", b.PowerCooling)
	}
}
