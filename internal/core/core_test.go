package core

import (
	"math"
	"repro/internal/cpu"
	"testing"

	"repro/internal/nas"
)

func TestTable1PaperShape(t *testing.T) {
	rows, tab, err := NewRun().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || tab.Rows() != 5 {
		t.Fatalf("Table 1 has %d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Processor] = r
	}
	piii := byName["500-MHz Intel Pentium III"]
	alpha := byName["533-MHz Compaq Alpha EV56"]
	tm := byName["633-MHz Transmeta TM5600"]
	p3 := byName["375-MHz IBM Power3"]
	ath := byName["1200-MHz AMD Athlon MP"]

	// Math-sqrt ordering (the paper's): Power3 > Athlon > TM > PIII > Alpha.
	if !(p3.MathMflops > ath.MathMflops && ath.MathMflops > tm.MathMflops &&
		tm.MathMflops > piii.MathMflops && piii.MathMflops > alpha.MathMflops) {
		t.Fatalf("math column ordering wrong: %+v", rows)
	}
	// Karp beats Math everywhere.
	for _, r := range rows {
		if r.KarpMflops <= r.MathMflops {
			t.Fatalf("%s: Karp %f not above Math %f", r.Processor, r.KarpMflops, r.MathMflops)
		}
	}
	// "The Transmeta performs as well as (if not better than) the Intel
	// and Alpha, relative to clock speed" on Math sqrt.
	tmPerClock := tm.MathMflops / 633
	if tmPerClock < piii.MathMflops/500*0.85 || tmPerClock < alpha.MathMflops/533*0.85 {
		t.Fatalf("TM5600 per-clock math rating %f too far below PIII %f / Alpha %f",
			tmPerClock, piii.MathMflops/500, alpha.MathMflops/533)
	}
	// "The Transmeta suffers a bit with Karp": smallest gain vs the
	// comparably clocked pair.
	if tm.KarpMflops/tm.MathMflops >= piii.KarpMflops/piii.MathMflops {
		t.Fatal("TM5600 Karp gain not below PIII gain")
	}
	if tm.KarpMflops/tm.MathMflops >= alpha.KarpMflops/alpha.MathMflops {
		t.Fatal("TM5600 Karp gain not below Alpha gain")
	}
}

func TestTable2SpeedupShape(t *testing.T) {
	cfg := Table2Config{Particles: 6000, CPUCounts: []int{1, 2, 4, 8}, Theta: 0.7}
	rows, tab, err := NewRun().Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 4 {
		t.Fatalf("table rows = %d", tab.Rows())
	}
	if rows[0].Speedup != 1 {
		t.Fatalf("speedup(1) = %f", rows[0].Speedup)
	}
	for i := 1; i < len(rows); i++ {
		r := rows[i]
		if r.Speedup <= rows[i-1].Speedup {
			t.Fatalf("speedup not increasing: %+v", rows)
		}
		if r.Speedup > float64(r.CPUs)*1.01 {
			t.Fatalf("superlinear speedup %f on %d CPUs", r.Speedup, r.CPUs)
		}
		// Efficiency drops with P — the paper's communication-overhead
		// observation.
		effPrev := rows[i-1].Speedup / float64(rows[i-1].CPUs)
		eff := r.Speedup / float64(r.CPUs)
		if eff >= effPrev+1e-9 {
			t.Fatalf("efficiency did not drop: %+v", rows)
		}
	}
}

func TestTable2Validation(t *testing.T) {
	if _, _, err := NewRun().Table2(Table2Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestTable3PaperShape(t *testing.T) {
	// Class S keeps the test fast; the ratios carry (Ops and Mix scale
	// together).
	data, tab, err := NewRun().Table3(nas.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Kernels) != 6 || tab.Rows() != 6 {
		t.Fatalf("Table 3 has %d kernels", len(data.Kernels))
	}
	for i, v := range data.Verified {
		if !v {
			t.Fatalf("kernel %s failed verification", data.Kernels[i])
		}
	}
	// Every cell bit for bit, as recorded before the calibrations fanned
	// out on the process pool.
	pinned := map[string][4]uint64{
		"BT": {0x407ca8342ac91718, 0x4063db2a3c924e78, 0x406209c479bc397d, 0x4075049bdedf7f98},
		"SP": {0x407d1d4a23334bbf, 0x40649bb8464b8a6f, 0x40619afd5d644dd6, 0x4076d2a96799da18},
		"LU": {0x40798b82b589982d, 0x4060ea10d3cc06c1, 0x40619e79274e24bc, 0x40709d41c8e47a25},
		"MG": {0x40819dd7d286723a, 0x406d4eaee7ad16b0, 0x40660534a9f248e2, 0x407cc3366ad229ec},
		"EP": {0x40762faebc628269, 0x4058827fedc0e0ef, 0x40643251e072f045, 0x40670f13b330a6f1},
		"IS": {0x4060f7562334bdf4, 0x4049df56508d535f, 0x40423cf44d5260fe, 0x4057a82d2833cdba},
	}
	for i, k := range data.Kernels {
		for j, m := range data.Mops[i] {
			if want := pinned[k][j]; math.Float64bits(m) != want {
				t.Errorf("%s on %s: %v Mops, pinned %v", k, data.Processors[j], m, math.Float64frombits(want))
			}
		}
	}
	// Columns: Athlon, PIII, TM5600, Power3. The paper: "the TM5600
	// performs as well as the 500-MHz Pentium III and about one-third as
	// well as the Athlon and Power3."
	const (
		athlon = iota
		piii
		tm
		power3
	)
	for i, k := range data.Kernels {
		if k == "EP" || k == "IS" {
			// EP is compute-bound in a way the paper's caveats cover; IS
			// is integer-only. The CFD+MG rows carry the claim.
			continue
		}
		row := data.Mops[i]
		if r := row[tm] / row[piii]; r < 0.6 || r > 1.5 {
			t.Errorf("%s: TM/PIII = %.2f, want ≈1", k, r)
		}
		if r := row[tm] / row[athlon]; r < 0.2 || r > 0.55 {
			t.Errorf("%s: TM/Athlon = %.2f, want ≈1/3", k, r)
		}
		if r := row[tm] / row[power3]; r < 0.2 || r > 0.7 {
			t.Errorf("%s: TM/Power3 = %.2f, want ≈1/3", k, r)
		}
	}
}

func TestTable4PaperClaims(t *testing.T) {
	rows, tab, err := NewRun().Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 || tab.Rows() != 12 {
		t.Fatalf("Table 4 has %d rows", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Machine] = r
	}
	// Every rating bit for bit, as recorded before the per-CPU treecode
	// ratings fanned out on the process pool.
	pinned := map[string]uint64{
		"LANL SGI Origin 2000":  0x40603e0a11a271ef,
		"SC'01 MetaBlade2":      0x405e3b0d7a31b8d5,
		"LANL Avalon":           0x405b8189ca6ff6dc,
		"LANL MetaBlade":        0x405caa01559721c8,
		"LANL Loki":             0x4045bec21987ecac,
		"NAS IBM SP-2 (66/W)":   0x403bcebc24591ca7,
		"SC'96 Loki+Hyglac":     0x404306e9d656ef15,
		"Sandia ASCI Red":       0x404a122ac4d15889,
		"Caltech Naegling":      0x4043921516fa5500,
		"NRL TMC CM-5E":         0x401f276fc12ef5bd,
		"Sandia ASCI Red ('97)": 0x403de64ae31ae56c,
		"JPL Cray T3D":          0x40316702a0e4948c,
	}
	for _, r := range rows {
		if want, ok := pinned[r.Machine]; !ok || math.Float64bits(r.MflopPerProc) != want {
			t.Errorf("%s: %v Mflop/proc, pinned %v", r.Machine, r.MflopPerProc, math.Float64frombits(want))
		}
	}
	origin := byName["LANL SGI Origin 2000"]
	mb2 := byName["SC'01 MetaBlade2"]
	mb := byName["LANL MetaBlade"]
	avalon := byName["LANL Avalon"]
	loki := byName["LANL Loki"]

	// "The latter [MetaBlade2] only places behind the SGI Origin 2000."
	for _, r := range rows {
		if r.Machine == "LANL SGI Origin 2000" || r.Machine == "SC'01 MetaBlade2" {
			continue
		}
		if r.MflopPerProc >= mb2.MflopPerProc {
			t.Errorf("%s per-proc %.1f ≥ MetaBlade2 %.1f", r.Machine, r.MflopPerProc, mb2.MflopPerProc)
		}
	}
	if origin.MflopPerProc <= mb2.MflopPerProc {
		t.Fatalf("Origin %f not above MetaBlade2 %f", origin.MflopPerProc, mb2.MflopPerProc)
	}
	// "the TM5600 is about twice that of the Pentium Pro 200" (Loki).
	ratio := mb.MflopPerProc / loki.MflopPerProc
	if ratio < 1.6 || ratio > 3.2 {
		t.Fatalf("MetaBlade/Loki per-proc = %.2f, want ≈2", ratio)
	}
	// "performs about the same as the 533-MHz Alpha" (Avalon).
	if r := mb.MflopPerProc / avalon.MflopPerProc; r < 0.7 || r > 1.4 {
		t.Fatalf("MetaBlade/Avalon per-proc = %.2f, want ≈1", r)
	}
	// MetaBlade2 improves on MetaBlade.
	if mb2.MflopPerProc <= mb.MflopPerProc {
		t.Fatal("MetaBlade2 not above MetaBlade")
	}
}

func TestTable5AndToPPeR(t *testing.T) {
	rows, tab, err := NewRun().Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || tab.Rows() != 6 {
		t.Fatalf("Table 5 shape: %d clusters, %d rows", len(rows), tab.Rows())
	}
	var blade, worstTrad float64
	for _, r := range rows {
		if r.Name == "TM5600" {
			blade = r.B.TCO()
		} else if r.B.TCO() > worstTrad {
			worstTrad = r.B.TCO()
		}
	}
	if blade <= 0 || worstTrad/blade < 2.5 {
		t.Fatalf("TCO advantage %f, want ≈3", worstTrad/blade)
	}

	s, err := NewRun().ToPPeR()
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: "the total price-performance ratio for our Transmeta-based
	// Bladed Beowulf is over twice as good as a traditional Beowulf",
	// while plain acquisition price/performance favours the traditional
	// cluster.
	if s.ToPPeRAdvantage < 2 {
		t.Fatalf("ToPPeR advantage %.2f, want > 2", s.ToPPeRAdvantage)
	}
	if s.PricePerfRatio <= 1 {
		t.Fatalf("acquisition price/perf ratio %.2f should favour the traditional cluster", s.PricePerfRatio)
	}
}

func TestSpacePowerPaperShape(t *testing.T) {
	rows, t6, t7, err := NewRun().SpacePower()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || t6.Rows() != 3 || t7.Rows() != 3 {
		t.Fatal("bad table shapes")
	}
	avalon, mb, gd := rows[0], rows[1], rows[2]
	// Table 6: MetaBlade beats the traditional Beowulf on perf/space "by
	// a factor of two"; Green Destiny by over twenty-fold.
	if r := mb.PerfSpace / avalon.PerfSpace; r < 2 {
		t.Fatalf("MetaBlade perf/space advantage %.2f, want ≥ 2", r)
	}
	if r := gd.PerfSpace / avalon.PerfSpace; r < 20 {
		t.Fatalf("Green Destiny perf/space advantage %.2f, want > 20", r)
	}
	// Table 7: blades outperform "by a factor of four" on perf/power.
	if r := mb.PerfPower / avalon.PerfPower; r < 4 {
		t.Fatalf("MetaBlade perf/power advantage %.2f, want ≥ 4", r)
	}
	if gd.PerfPower <= mb.PerfPower {
		t.Fatal("Green Destiny perf/power not above MetaBlade")
	}
	// Physical attributes straight from the paper.
	if mb.AreaSqFt != 6 || gd.AreaSqFt != 6 {
		t.Fatalf("blade footprints: %v, %v ft², want 6", mb.AreaSqFt, gd.AreaSqFt)
	}
	if avalon.AreaSqFt != 120 {
		t.Fatalf("Avalon footprint %v, want 120", avalon.AreaSqFt)
	}
}

func TestFigure3RendersCollapse(t *testing.T) {
	cfg := Figure3Config{Particles: 3000, Steps: 5, Width: 40, Height: 20}
	img, sys, err := NewRun().Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 40 || img.H != 20 {
		t.Fatal("bad image size")
	}
	if sys.Interactions == 0 {
		t.Fatal("no interactions recorded")
	}
	// Centre brighter than the edge for a collapsing Plummer sphere.
	centre := img.Pix[10*40+20]
	if centre == 0 {
		t.Fatal("empty centre")
	}
	var max byte
	for _, p := range img.Pix {
		if p > max {
			max = p
		}
	}
	if max < 128 {
		t.Fatalf("dynamic range too low: max %d", max)
	}
}

func TestFigure3Validation(t *testing.T) {
	if _, _, err := NewRun().Figure3(Figure3Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestFigure3AfterTable2SumsTreecodeCounters: every treecode source has
// delta semantics, so running Figure 3 after Table 2 on one Run (as
// metablade -all does) must leave the sum of the two experiments'
// treecode counters, not Figure 3's alone.
func TestFigure3AfterTable2SumsTreecodeCounters(t *testing.T) {
	t2 := Table2Config{Particles: 4000, CPUCounts: []int{1, 2}, Theta: 0.7}
	f3 := Figure3Config{Particles: 2000, Steps: 1, Width: 16, Height: 8}
	alone2, alone3, both := NewRun(), NewRun(), NewRun()
	if _, _, err := alone2.Table2(t2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := alone3.Figure3(f3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := both.Table2(t2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := both.Figure3(f3); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"treecode.pp", "treecode.pc", "treecode.interactions", "treecode.flops"} {
		a, b := alone2.Snap.Counter(name), alone3.Snap.Counter(name)
		if a == 0 || b == 0 {
			t.Fatalf("%s: Table 2 alone %d, Figure 3 alone %d; want both nonzero", name, a, b)
		}
		if got := both.Snap.Counter(name); got != a+b {
			t.Errorf("%s = %d after Table 2 then Figure 3, want %d + %d = %d", name, got, a, b, a+b)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	machines, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 12 {
		t.Fatalf("registry has %d machines", len(machines))
	}
	for _, m := range machines {
		if m.CPU == nil || m.Procs <= 0 || m.ParallelEff <= 0 || m.ParallelEff > 1 {
			t.Errorf("bad registry entry %+v", m)
		}
	}
}

func TestTreecodeRateDeterministic(t *testing.T) {
	p := cpu.PentiumIII500().AsProcessor()
	a, err := TreecodeRate(p, 3000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TreecodeRate(p, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("rates differ: %f vs %f", a, b)
	}
	if a <= 0 {
		t.Fatal("zero rate")
	}
}

// TestStudyAvailabilityFailureSimPinned pins both StudyAvailability
// rows bit for bit, recorded before the failure simulation's event loop
// was rewritten (cluster's TestFailureSimPinned pins FailureSim itself).
// The bits are FailuresPerYear, LostCPUHours, Availability,
// DowntimeCostUSD and EffectiveCapacity.
func TestStudyAvailabilityFailureSimPinned(t *testing.T) {
	rows, err := StudyAvailability(4, 2002)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		bits [5]uint64
	}{
		{"MetaBlade", [5]uint64{0x4004000000000000, 0x4024000000000000, 0x3fefffe70ff9c3fe, 0x4049000000000000, 0x3fefffe70ff9c3fe}},
		{"traditional (P4)", [5]uint64{0x4013000000000000, 0x409c800000000000, 0x3fefee3b61f53ee4, 0x40c1d00000000000, 0x3fefee3b61f53ee4}},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		got := [5]uint64{math.Float64bits(r.FailuresPerYear), math.Float64bits(r.LostCPUHours),
			math.Float64bits(r.Availability), math.Float64bits(r.DowntimeCostUSD), math.Float64bits(r.EffectiveCapacity)}
		if r.Name != w.name || got != w.bits {
			t.Errorf("row %d: %+v (bits %#x), want %s with bits %#x", i, r, got, w.name, w.bits)
		}
	}
}

func TestAvailabilityStudyShape(t *testing.T) {
	rows, err := StudyAvailability(20, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	blade, trad := rows[0], rows[1]
	// The blade loses far fewer CPU-hours: fewer failures (cooler
	// components), shorter outages (managed diagnosis), one blade down
	// instead of the whole cluster.
	if blade.LostCPUHours*20 > trad.LostCPUHours {
		t.Fatalf("blade lost %f CPU-h vs traditional %f — want ≥20x gap",
			blade.LostCPUHours, trad.LostCPUHours)
	}
	if blade.Availability <= trad.Availability {
		t.Fatal("blade availability not higher")
	}
	if trad.Availability < 0.95 || trad.Availability > 1 {
		t.Fatalf("traditional availability %f implausible", trad.Availability)
	}
	// Traditional downtime cost per 4 years ≈ the paper's $11.5K.
	per4yr := trad.DowntimeCostUSD / 5
	if per4yr < 6000 || per4yr > 20000 {
		t.Fatalf("traditional 4-year downtime cost $%.0f, paper says ≈$11.5K", per4yr)
	}
}
