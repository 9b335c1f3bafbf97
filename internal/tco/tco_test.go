package tco

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func table5(t *testing.T) map[string]Breakdown {
	t.Helper()
	cfgs, err := PaperTable5Configs()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Breakdown{}
	for _, cfg := range cfgs {
		b, err := Compute(cfg, PaperRates())
		if err != nil {
			t.Fatal(err)
		}
		out[cfg.Name] = b
	}
	return out
}

// within checks a value against a paper figure quoted in $K.
func within(t *testing.T, name string, got, paperK, tolK float64) {
	t.Helper()
	if math.Abs(got-paperK*1000) > tolK*1000 {
		t.Errorf("%s = $%.0f, paper says ≈$%.0fK", name, got, paperK)
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	b := table5(t)

	// Acquisition row (exact paper inputs).
	within(t, "Alpha acq", b["Alpha"].Acquisition, 17, 0.001)
	within(t, "TM5600 acq", b["TM5600"].Acquisition, 26, 0.001)

	// System administration: $60K traditional, $5K blade.
	for _, n := range []string{"Alpha", "Athlon", "PIII", "P4"} {
		within(t, n+" SAC", b[n].SysAdmin, 60, 1)
	}
	within(t, "TM5600 SAC", b["TM5600"].SysAdmin, 5, 0.5)

	// Power & cooling: 11/6/6/11/2 ($K).
	within(t, "Alpha PCC", b["Alpha"].PowerCooling, 11, 1)
	within(t, "Athlon PCC", b["Athlon"].PowerCooling, 6, 1)
	within(t, "PIII PCC", b["PIII"].PowerCooling, 6, 1)
	within(t, "P4 PCC", b["P4"].PowerCooling, 11, 1)
	within(t, "TM5600 PCC", b["TM5600"].PowerCooling, 2, 0.5)

	// Space: 8/8/8/8/2 ($K; blade is $2.4K in the paper's text).
	for _, n := range []string{"Alpha", "Athlon", "PIII", "P4"} {
		within(t, n+" SCC", b[n].Space, 8, 0.5)
	}
	within(t, "TM5600 SCC", b["TM5600"].Space, 2.4, 0.1)

	// Downtime: 12/12/12/12/~0 ($K; blade is $20 in the paper's text).
	for _, n := range []string{"Alpha", "Athlon", "PIII", "P4"} {
		within(t, n+" DTC", b[n].Downtime, 11.5, 0.7)
	}
	if b["TM5600"].Downtime != 20 {
		t.Errorf("TM5600 DTC = %v, paper computes exactly $20", b["TM5600"].Downtime)
	}

	// TCO row: 108/101/102/108/35 ($K).
	within(t, "Alpha TCO", b["Alpha"].TCO(), 108, 2)
	within(t, "Athlon TCO", b["Athlon"].TCO(), 101, 2)
	within(t, "PIII TCO", b["PIII"].TCO(), 102, 2)
	within(t, "P4 TCO", b["P4"].TCO(), 108, 2)
	within(t, "TM5600 TCO", b["TM5600"].TCO(), 35, 1.5)
}

func TestTCOFactorOfThree(t *testing.T) {
	// "the TCO on our MetaBlade Bladed Beowulf is approximately three
	// times better than the TCO on a traditional Beowulf"
	b := table5(t)
	blade := b["TM5600"].TCO()
	for _, n := range []string{"Alpha", "Athlon", "PIII", "P4"} {
		ratio := b[n].TCO() / blade
		if ratio < 2.5 || ratio > 3.5 {
			t.Errorf("%s TCO / blade TCO = %.2f, paper says ≈3", n, ratio)
		}
	}
}

func TestAcquisitionHigherButTCOLower(t *testing.T) {
	// The paper's core argument: the blade costs 50–75% more to acquire
	// yet three times less to own.
	b := table5(t)
	for _, n := range []string{"Alpha", "Athlon", "PIII", "P4"} {
		if b["TM5600"].Acquisition <= b[n].Acquisition {
			t.Errorf("blade acquisition not higher than %s", n)
		}
		if b["TM5600"].TCO() >= b[n].TCO() {
			t.Errorf("blade TCO not lower than %s", n)
		}
	}
}

func TestToPPeRTwiceAsGood(t *testing.T) {
	// Blade performance = 75% of a comparable traditional cluster, TCO 3x
	// smaller ⇒ ToPPeR better by >2x (paper §4.1 conclusion).
	b := table5(t)
	tradGflops := 2.8 // a comparably clocked traditional 24-node Beowulf
	bladeGflops := 0.75 * tradGflops
	tradToPPeR := ToPPeR(b["PIII"].TCO(), tradGflops)
	bladeToPPeR := ToPPeR(b["TM5600"].TCO(), bladeGflops)
	if ratio := tradToPPeR / bladeToPPeR; ratio < 2 {
		t.Fatalf("ToPPeR advantage %.2fx, paper says over 2x", ratio)
	}
	// While plain price/performance favours the traditional cluster:
	if PricePerf(b["TM5600"].Acquisition, bladeGflops) <= PricePerf(b["PIII"].Acquisition, tradGflops) {
		t.Fatal("acquisition price/perf should favour the traditional cluster")
	}
}

func TestSpaceCostScalesThirtyThreeFold(t *testing.T) {
	// Footnote 5: at 240 nodes, blade space cost stays $2400 while the
	// traditional cost grows ten-fold to $80K — 33x more expensive.
	rates := PaperRates()
	blade, err := cluster.New("GD", cluster.NodeTM5800, cluster.BladePackaging(), 240, 27)
	if err != nil {
		t.Fatal(err)
	}
	trad, err := cluster.New("trad240", cluster.NodeP4, cluster.TraditionalPackaging(), 240, 24)
	if err != nil {
		t.Fatal(err)
	}
	bladeSpace := blade.FootprintSqFt() * rates.SpacePerSqFtYear * rates.Years
	tradSpace := trad.FootprintSqFt() * rates.SpacePerSqFtYear * rates.Years
	if bladeSpace != 2400 {
		t.Fatalf("240-blade space cost $%v, paper says $2400", bladeSpace)
	}
	ratio := tradSpace / bladeSpace
	if ratio < 25 || ratio > 40 {
		t.Fatalf("space cost ratio %.1f, paper says ≈33x", ratio)
	}
}

func TestComputeValidation(t *testing.T) {
	cl, _ := cluster.New("x", cluster.NodePIII, cluster.TraditionalPackaging(), 24, 24)
	if _, err := Compute(Config{Name: "nil"}, PaperRates()); err == nil {
		t.Error("nil cluster accepted")
	}
	bad := PaperRates()
	bad.Years = 0
	if _, err := Compute(Config{Name: "x", Cluster: cl}, bad); err == nil {
		t.Error("zero lifetime accepted")
	}
	if _, err := Compute(Config{Name: "x", Cluster: cl, AcquisitionUSD: -1}, PaperRates()); err == nil {
		t.Error("negative acquisition accepted")
	}
}

func TestBreakdownAlgebra(t *testing.T) {
	b := Breakdown{Acquisition: 10, SysAdmin: 1, PowerCooling: 2, Space: 3, Downtime: 4}
	if b.TCO() != 20 {
		t.Fatalf("TCO = %v", b.TCO())
	}
}

func TestMetricEdgeCases(t *testing.T) {
	if ToPPeR(100, 0) != 0 || PricePerf(100, 0) != 0 ||
		PerfPerSpace(1, 0) != 0 || PerfPerPower(1, 0) != 0 {
		t.Fatal("zero denominators must yield 0, not Inf")
	}
}

func TestPerfMetrics(t *testing.T) {
	// Table 6/7 arithmetic: MetaBlade 2.1 Gflop / 6 ft² = 350 Mflop/ft²;
	// 2.1 Gflop / 0.52 kW ≈ 4 Gflop/kW.
	if got := PerfPerSpace(2.1, 6); math.Abs(got-350) > 0.001 {
		t.Fatalf("PerfPerSpace = %v, want 350", got)
	}
	if got := PerfPerPower(2.1, 0.52); math.Abs(got-4.038) > 0.01 {
		t.Fatalf("PerfPerPower = %v, want ≈4.04", got)
	}
}

func TestHigherRatesRaiseTCO(t *testing.T) {
	cfgs, _ := PaperTable5Configs()
	lo, _ := Compute(cfgs[0], PaperRates())
	hi := PaperRates()
	hi.ElectricityPerKWh *= 2
	hi.SpacePerSqFtYear *= 2
	hiB, _ := Compute(cfgs[0], hi)
	if hiB.TCO() <= lo.TCO() {
		t.Fatal("doubling rates did not raise TCO")
	}
	if hiB.PowerCooling != 2*lo.PowerCooling {
		t.Fatal("power cost not linear in electricity rate")
	}
}
