package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/designopt"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nbody"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/tco"
	"repro/internal/treecode"
)

// The concrete experiment kinds. Each spec's Run produces the exact
// text its CLI driver used to print, so the drivers are thin parse
// layers and the gateway serves the same experiments over HTTP.

func init() {
	RegisterSpec("table1", func() ExperimentSpec { return &Table1Spec{} })
	RegisterSpec("table2", func() ExperimentSpec { return &Table2Spec{} })
	RegisterSpec("table3", func() ExperimentSpec { return &Table3Spec{} })
	RegisterSpec("table4", func() ExperimentSpec { return &Table4Spec{} })
	RegisterSpec("table5", func() ExperimentSpec { return &Table5Spec{} })
	RegisterSpec("topper", func() ExperimentSpec { return &ToPPeRSpec{} })
	RegisterSpec("spacepower", func() ExperimentSpec { return &SpacePowerSpec{} })
	RegisterSpec("figure3", func() ExperimentSpec { return &Figure3Spec{} })
	RegisterSpec("nassweep", func() ExperimentSpec { return &NASSweepSpec{} })
	RegisterSpec("naskernels", func() ExperimentSpec { return &NASKernelsSpec{} })
	RegisterSpec("nbody", func() ExperimentSpec { return &NBodySpec{} })
	RegisterSpec("tco", func() ExperimentSpec { return &TCOSpec{} })
	RegisterSpec("topperopt", func() ExperimentSpec { return &TopperOptSpec{} })
}

// EngineSpec is the force-engine selection shared by the treecode
// experiments, in flag spelling. The zero value means "auto" at the
// default error budget.
type EngineSpec struct {
	Engine      string  `json:"engine,omitempty"`
	ErrorBudget float64 `json:"error_budget,omitempty"`
}

func (e *EngineSpec) normalize() {
	if e.Engine == "" {
		e.Engine = "auto"
	}
	if e.ErrorBudget == 0 {
		e.ErrorBudget = treecode.DefaultErrorBudget
	}
}

func (e *EngineSpec) validate() error {
	if _, err := treecode.ParseEngine(e.Engine); err != nil {
		return err
	}
	if e.ErrorBudget < 0 {
		return fmt.Errorf("negative error_budget %g", e.ErrorBudget)
	}
	return nil
}

// resolve returns the concrete engine the spec selects, mirroring the
// Driver's flag resolution.
func (e *EngineSpec) resolve() treecode.Engine {
	eng, err := treecode.ParseEngine(e.Engine)
	if err != nil {
		eng = treecode.EngineAuto
	}
	return treecode.ResolveEngine(eng, e.ErrorBudget)
}

// --- table1 ---

// Table1Spec runs the gravitational-microkernel processor comparison.
// It has no parameters: the paper's five evaluation CPUs are fixed.
type Table1Spec struct{}

func (*Table1Spec) Kind() string    { return "table1" }
func (*Table1Spec) Normalize()      {}
func (*Table1Spec) Validate() error { return nil }

func (*Table1Spec) Run(r *Run) (*SpecResult, error) {
	rows, t, err := r.Table1()
	if err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "table1", Text: fmt.Sprintf("%s\n", t), Data: rows}, nil
}

// FabricModeSpec is the interconnect-topology selection shared by the
// parallel experiment kinds, in flag spelling. The zero value keeps the
// paper's star switch; Normalize folds the explicit "star" into the
// zero value so both spellings hash identically, and specs that omit
// the field keep their historical hashes.
type FabricModeSpec struct {
	Fabric string `json:"fabric,omitempty"`
}

func (f *FabricModeSpec) normalize() {
	f.Fabric = strings.ToLower(f.Fabric)
	if f.Fabric == "star" {
		f.Fabric = ""
	}
}

func (f *FabricModeSpec) validate() error {
	return netsim.ApplyTopology(netsim.FastEthernet(), f.Fabric, 4)
}

// --- table2 ---

// Table2Spec runs the MetaBlade N-body scalability sweep.
type Table2Spec struct {
	Particles int     `json:"particles,omitempty"`
	CPUCounts []int   `json:"cpu_counts,omitempty"`
	Theta     float64 `json:"theta,omitempty"`
	EngineSpec
	FabricModeSpec
}

func (*Table2Spec) Kind() string { return "table2" }

func (s *Table2Spec) Normalize() {
	def := DefaultTable2Config()
	if s.Particles == 0 {
		s.Particles = def.Particles
	}
	if len(s.CPUCounts) == 0 {
		s.CPUCounts = def.CPUCounts
	}
	if s.Theta == 0 {
		s.Theta = def.Theta
	}
	s.EngineSpec.normalize()
	s.FabricModeSpec.normalize()
}

func (s *Table2Spec) Validate() error {
	if s.Particles <= 0 {
		return fmt.Errorf("particles %d", s.Particles)
	}
	for _, p := range s.CPUCounts {
		if p <= 0 {
			return fmt.Errorf("cpu count %d", p)
		}
	}
	if s.Theta <= 0 {
		return fmt.Errorf("theta %g", s.Theta)
	}
	if err := s.FabricModeSpec.validate(); err != nil {
		return err
	}
	return s.EngineSpec.validate()
}

func (s *Table2Spec) Run(r *Run) (*SpecResult, error) {
	cfg := Table2Config{
		Particles: s.Particles,
		CPUCounts: s.CPUCounts,
		Theta:     s.Theta,
		Engine:    s.resolve(),
		Fabric:    s.Fabric,
	}
	rows, t, err := r.Table2(cfg)
	if err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "table2", Text: fmt.Sprintf("%s\n", t), Data: rows}, nil
}

// --- table3 ---

// Table3Spec runs the NPB kernel × processor rating grid.
type Table3Spec struct {
	Class string `json:"class,omitempty"`
}

func (*Table3Spec) Kind() string { return "table3" }

func (s *Table3Spec) Normalize() {
	if s.Class == "" {
		s.Class = "W"
	}
	s.Class = strings.ToUpper(s.Class)
}

func (s *Table3Spec) Validate() error { return validateClass(s.Class) }

func (s *Table3Spec) Run(r *Run) (*SpecResult, error) {
	data, t, err := r.Table3(nas.Class(s.Class[0]))
	if err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "table3", Text: fmt.Sprintf("%s\n", t), Data: data}, nil
}

func validateClass(class string) error {
	switch class {
	case "S", "W", "A":
		return nil
	}
	return fmt.Errorf("class %q (want S, W or A)", class)
}

// --- table4 ---

// Table4Spec rates the historical treecode machines.
type Table4Spec struct{}

func (*Table4Spec) Kind() string    { return "table4" }
func (*Table4Spec) Normalize()      {}
func (*Table4Spec) Validate() error { return nil }

func (*Table4Spec) Run(r *Run) (*SpecResult, error) {
	rows, t, err := r.Table4()
	if err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "table4", Text: fmt.Sprintf("%s\n", t), Data: rows}, nil
}

// --- table5 ---

// Table5Spec computes the four-year cost-of-ownership table.
type Table5Spec struct{}

func (*Table5Spec) Kind() string    { return "table5" }
func (*Table5Spec) Normalize()      {}
func (*Table5Spec) Validate() error { return nil }

func (*Table5Spec) Run(r *Run) (*SpecResult, error) {
	rows, t, err := r.Table5()
	if err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "table5", Text: fmt.Sprintf("%s\n", t), Data: rows}, nil
}

// --- topper ---

// ToPPeRSpec computes the §4.1 ToPPeR versus price/performance
// comparison of the blade against a comparably clocked traditional
// Beowulf.
type ToPPeRSpec struct{}

func (*ToPPeRSpec) Kind() string    { return "topper" }
func (*ToPPeRSpec) Normalize()      {}
func (*ToPPeRSpec) Validate() error { return nil }

func (*ToPPeRSpec) Run(r *Run) (*SpecResult, error) {
	s, err := r.ToPPeR()
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("ToPPeR (TCO $/Mflops): traditional %.2f vs blade %.2f — advantage %.2fx\n",
		s.TradToPPeR, s.BladeToPPeR, s.ToPPeRAdvantage) +
		fmt.Sprintf("Acquisition price/perf: traditional %.2f vs blade %.2f (blade costs %.2fx more per Mflops to acquire)\n\n",
			s.TradPricePerf, s.BladePricePerf, s.PricePerfRatio)
	return &SpecResult{Kind: "topper", Text: text, Data: s}, nil
}

// --- spacepower ---

// SpacePowerSpec builds the performance/space and performance/power
// comparisons (Tables 6 and 7). With neither toggle set, both render.
type SpacePowerSpec struct {
	Table6 bool `json:"table6,omitempty"`
	Table7 bool `json:"table7,omitempty"`
}

func (*SpacePowerSpec) Kind() string { return "spacepower" }

func (s *SpacePowerSpec) Normalize() {
	if !s.Table6 && !s.Table7 {
		s.Table6, s.Table7 = true, true
	}
}

func (*SpacePowerSpec) Validate() error { return nil }

func (s *SpacePowerSpec) Run(r *Run) (*SpecResult, error) {
	rows, t6, t7, err := r.SpacePower()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if s.Table6 {
		fmt.Fprintf(&b, "%s\n", t6)
	}
	if s.Table7 {
		fmt.Fprintf(&b, "%s\n", t7)
	}
	return &SpecResult{Kind: "spacepower", Text: b.String(), Data: rows}, nil
}

// --- figure3 ---

// Figure3Spec runs the self-gravitating collapse and renders the
// projected density as ASCII art.
type Figure3Spec struct {
	Particles int `json:"particles,omitempty"`
	Steps     int `json:"steps,omitempty"`
	Width     int `json:"width,omitempty"`
	Height    int `json:"height,omitempty"`
	EngineSpec
}

func (*Figure3Spec) Kind() string { return "figure3" }

func (s *Figure3Spec) Normalize() {
	def := DefaultFigure3Config()
	if s.Particles == 0 {
		s.Particles = def.Particles
	}
	if s.Steps == 0 {
		s.Steps = def.Steps
	}
	if s.Width == 0 {
		s.Width = def.Width
	}
	if s.Height == 0 {
		s.Height = def.Height
	}
	s.EngineSpec.normalize()
}

func (s *Figure3Spec) Validate() error {
	if s.Particles <= 0 || s.Width <= 0 || s.Height <= 0 {
		return fmt.Errorf("particles %d, width %d, height %d", s.Particles, s.Width, s.Height)
	}
	if s.Steps < 0 {
		return fmt.Errorf("steps %d", s.Steps)
	}
	return s.EngineSpec.validate()
}

// Figure3Data is the structured result of a figure3 run.
type Figure3Data struct {
	Particles    int    `json:"particles"`
	Steps        int    `json:"steps"`
	Interactions uint64 `json:"interactions"`
}

func (s *Figure3Spec) Run(r *Run) (*SpecResult, error) {
	cfg := Figure3Config{
		Particles: s.Particles,
		Steps:     s.Steps,
		Width:     s.Width,
		Height:    s.Height,
		Engine:    s.resolve(),
	}
	img, sys, err := r.Figure3(cfg)
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("Figure 3: projected density after %d steps of a %d-particle collapse (%d interactions computed)\n",
		cfg.Steps, cfg.Particles, sys.Interactions) +
		fmt.Sprintf("%s\n", img.ASCII())
	return &SpecResult{
		Kind:  "figure3",
		Text:  text,
		Data:  Figure3Data{Particles: cfg.Particles, Steps: cfg.Steps, Interactions: sys.Interactions},
		Extra: sys,
	}, nil
}

// --- nassweep ---

// NASSweepSpec runs the parallel NAS EP/IS rank sweep on the simulated
// cluster.
type NASSweepSpec struct {
	Class      string `json:"class,omitempty"`
	Ranks      []int  `json:"ranks,omitempty"`
	Native     bool   `json:"native,omitempty"`
	Contention bool   `json:"contention,omitempty"`
	EPOnly     bool   `json:"ep_only,omitempty"`
	FabricModeSpec
}

func (*NASSweepSpec) Kind() string { return "nassweep" }

func (s *NASSweepSpec) Normalize() {
	if s.Class == "" {
		s.Class = "S"
	}
	s.Class = strings.ToUpper(s.Class)
	if len(s.Ranks) == 0 {
		s.Ranks = DefaultNASSweepConfig().Ranks
	}
	s.FabricModeSpec.normalize()
}

func (s *NASSweepSpec) Validate() error {
	if err := validateClass(s.Class); err != nil {
		return err
	}
	for _, p := range s.Ranks {
		if p <= 0 {
			return fmt.Errorf("rank count %d", p)
		}
	}
	return s.FabricModeSpec.validate()
}

func (s *NASSweepSpec) Run(r *Run) (*SpecResult, error) {
	cfg := NASSweepConfig{
		Class:      nas.Class(s.Class[0]),
		Ranks:      s.Ranks,
		Native:     s.Native,
		Contention: s.Contention,
		Fabric:     s.Fabric,
		EPOnly:     s.EPOnly,
	}
	rows, t, err := r.NASSweep(cfg)
	if err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "nassweep", Text: fmt.Sprintf("%s\n", t), Data: rows}, nil
}

// --- naskernels ---

// NASKernelsSpec runs the NPB kernels, verifies them, and (by default)
// rates them on the Table 3 processors. Rate is a pointer so an
// omitted field means the flag default, true. Ranks > 0 switches to
// the distributed kernels (EP and IS) on a simulated world of that
// size, with the fabric topology from FabricModeSpec; rows then carry
// the simulated makespan.
type NASKernelsSpec struct {
	Class  string `json:"class,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	Rate   *bool  `json:"rate,omitempty"`
	Ranks  int    `json:"ranks,omitempty"`
	FabricModeSpec
}

func (*NASKernelsSpec) Kind() string { return "naskernels" }

func (s *NASKernelsSpec) Normalize() {
	if s.Class == "" {
		s.Class = "S"
	}
	s.Class = strings.ToUpper(s.Class)
	s.Kernel = strings.ToUpper(s.Kernel)
	if s.Rate == nil {
		t := true
		s.Rate = &t
	}
	s.FabricModeSpec.normalize()
}

func (s *NASKernelsSpec) Validate() error {
	if err := validateClass(s.Class); err != nil {
		return err
	}
	if s.Kernel != "" {
		found := false
		for _, k := range nas.AllKernels() {
			if strings.EqualFold(k.Name(), s.Kernel) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown kernel %q", s.Kernel)
		}
	}
	if s.Ranks < 0 {
		return fmt.Errorf("ranks %d", s.Ranks)
	}
	if s.Ranks > 0 && s.Kernel != "" && s.Kernel != "EP" && s.Kernel != "IS" {
		return fmt.Errorf("kernel %q has no distributed implementation (want EP or IS)", s.Kernel)
	}
	return s.FabricModeSpec.validate()
}

// NASKernelRow is one kernel's verification and rating result. Ranks
// and SimSec are set only by distributed (Ranks > 0) runs.
type NASKernelRow struct {
	Kernel   string    `json:"kernel"`
	Class    string    `json:"class"`
	Verified bool      `json:"verified"`
	Checksum float64   `json:"checksum"`
	WallSec  float64   `json:"wall_sec"`
	Mops     []float64 `json:"mops,omitempty"`
	Ranks    int       `json:"ranks,omitempty"`
	SimSec   float64   `json:"sim_sec,omitempty"`
}

// runParallel is the Ranks > 0 arm of NASKernelsSpec.Run: the
// distributed EP/IS kernels on one simulated world per kernel.
func (s *NASKernelsSpec) runParallel(r *Run) (*SpecResult, error) {
	costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateClassW)
	if err != nil {
		return nil, err
	}
	p := s.Ranks
	mk := func() (*mpi.World, error) {
		f := netsim.FastEthernet()
		if err := netsim.ApplyTopology(f, s.Fabric, p); err != nil {
			return nil, err
		}
		w, err := mpi.NewWorld(p, f)
		if err != nil {
			return nil, err
		}
		w.Tracer = r.Tracer
		return w, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-9s %-14s %-8s %-14s %-12s\n",
		"Code", "Class", "Verified", "Checksum", "Ranks", "Sim (s)", "Wall")
	var rows []NASKernelRow
	runK := func(name string, run func(w *mpi.World) (*nas.ParallelResult, error)) error {
		if s.Kernel != "" && !strings.EqualFold(name, s.Kernel) {
			return nil
		}
		w, err := mk()
		if err != nil {
			return err
		}
		sp := r.Tracer.Begin(obs.PidHost, 0, "nasbench", fmt.Sprintf("%s.p%d", name, p))
		t0 := time.Now()
		res, err := run(w)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		sp.End(map[string]any{"ranks": p, "verified": res.Verified})
		r.gather(w)
		kname := obs.SanitizeName(name)
		r.Snap.SetGauge("nasbench."+kname+".sim", "s", "simulated parallel makespan", res.SimTime)
		if res.Verified {
			r.Snap.AddCounter("nasbench.verified", "", "kernels passing verification", 1)
		}
		fmt.Fprintf(&b, "%-4s %-6s %-9v %-14.6g %-8d %-14.6g %-12v\n",
			res.Kernel, res.Class, res.Verified, res.Checksum, p, res.SimTime,
			wall.Round(time.Millisecond))
		rows = append(rows, NASKernelRow{
			Kernel:   res.Kernel,
			Class:    string(res.Class),
			Verified: res.Verified,
			Checksum: res.Checksum,
			WallSec:  wall.Seconds(),
			Ranks:    p,
			SimSec:   res.SimTime,
		})
		return nil
	}
	if err := runK("EP", func(w *mpi.World) (*nas.ParallelResult, error) {
		return nas.ParallelEP(w, nas.Class(s.Class[0]), costs)
	}); err != nil {
		return nil, err
	}
	if err := runK("IS", func(w *mpi.World) (*nas.ParallelResult, error) {
		return nas.ParallelIS(w, nas.Class(s.Class[0]), costs)
	}); err != nil {
		return nil, err
	}
	return &SpecResult{Kind: "naskernels", Text: b.String(), Data: rows}, nil
}

func (s *NASKernelsSpec) Run(r *Run) (*SpecResult, error) {
	if s.Ranks > 0 {
		return s.runParallel(r)
	}
	snap := r.Snap
	var costs []cpu.EffCosts
	var procs []cpu.Processor
	if *s.Rate {
		procs = cpu.NASCPUs()
		for _, p := range procs {
			// CalibrateFor is memoized process-wide, so re-rating more
			// kernels (or tables) shares one calibration per processor.
			e, err := cpu.CalibrateFor(p, cpu.MissRateClassW)
			if err != nil {
				return nil, err
			}
			costs = append(costs, e)
		}
	}
	var b strings.Builder
	header := fmt.Sprintf("%-4s %-6s %-9s %-14s %-12s", "Code", "Class", "Verified", "Checksum", "Wall")
	for _, p := range procs {
		header += fmt.Sprintf(" %18s", nasShortName(p.Name()))
	}
	fmt.Fprintf(&b, "%s\n", header)
	var rows []NASKernelRow
	for _, k := range nas.AllKernels() {
		if s.Kernel != "" && !strings.EqualFold(k.Name(), s.Kernel) {
			continue
		}
		sp := r.Tracer.Begin(obs.PidHost, 0, "nasbench", k.Name())
		t0 := time.Now()
		kr, err := k.Run(nas.Class(s.Class[0]))
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		sp.End(map[string]any{"ops": kr.Ops, "verified": kr.Verified})
		kname := obs.SanitizeName(k.Name())
		snap.AddCounter("nasbench."+kname+".ops", "ops", "abstract operations executed", uint64(kr.Ops))
		snap.AddTimer("nasbench."+kname+".wall", "host wall time running the kernel", wall.Seconds())
		if kr.Verified {
			snap.AddCounter("nasbench.verified", "", "kernels passing verification", 1)
		}
		line := fmt.Sprintf("%-4s %-6s %-9v %-14.6g %-12v",
			kr.Kernel, kr.Class, kr.Verified, kr.Checksum, wall.Round(time.Millisecond))
		row := NASKernelRow{
			Kernel:   kr.Kernel,
			Class:    string(kr.Class),
			Verified: kr.Verified,
			Checksum: kr.Checksum,
			WallSec:  wall.Seconds(),
		}
		for i, p := range procs {
			m := costs[i].Mops(kr.Ops, &kr.Mix)
			line += fmt.Sprintf(" %15.1f Mops", m)
			row.Mops = append(row.Mops, m)
			snap.SetGauge("nasbench."+kname+"."+obs.SanitizeName(p.Name())+".mops", "Mops",
				"kernel rating, class "+s.Class, m)
		}
		fmt.Fprintf(&b, "%s\n", line)
		rows = append(rows, row)
	}
	return &SpecResult{Kind: "naskernels", Text: b.String(), Data: rows}, nil
}

// nasShortName trims a processor name for the naskernels table header.
func nasShortName(s string) string {
	fields := strings.Fields(s)
	if len(fields) > 2 {
		return strings.Join(fields[1:], " ")
	}
	return s
}

// --- nbody ---

// NBodySpec runs a gravitational N-body scenario: serial or on the
// simulated Bladed Beowulf, direct or tree-accelerated, uniform
// leapfrog or hierarchical block timesteps.
type NBodySpec struct {
	N          int     `json:"n,omitempty"`
	Steps      int     `json:"steps,omitempty"`
	DT         float64 `json:"dt,omitempty"`
	Theta      float64 `json:"theta,omitempty"`
	Direct     bool    `json:"direct,omitempty"`
	Quadrupole bool    `json:"quadrupole,omitempty"`
	Ranks      int     `json:"ranks,omitempty"`
	Rungs      int     `json:"rungs,omitempty"`
	Eta        float64 `json:"eta,omitempty"`
	// IC names the initial-condition preset: "plummer" (default),
	// "colddisk" or "twocluster". Normalize folds the default spelling
	// to the empty string so historical spec hashes are unchanged.
	IC string `json:"ic,omitempty"`
	EngineSpec
}

func (*NBodySpec) Kind() string { return "nbody" }

func (s *NBodySpec) Normalize() {
	if s.N == 0 {
		s.N = 20000
	}
	if s.Steps == 0 {
		s.Steps = 10
	}
	if s.DT == 0 {
		s.DT = 0.005
	}
	if s.Theta == 0 {
		s.Theta = 0.7
	}
	s.IC = strings.ToLower(s.IC)
	if s.IC == "plummer" {
		s.IC = ""
	}
	s.EngineSpec.normalize()
}

// nbodyIC maps a normalized preset name to its generator (the empty
// string is the historical Plummer default, seed 2001).
func nbodyIC(name string) (func(n int, seed uint64) *nbody.System, error) {
	switch name {
	case "", "plummer":
		return func(n int, seed uint64) *nbody.System { return nbody.NewPlummer(n, 1, seed) }, nil
	case "colddisk":
		return nbody.NewColdDisk, nil
	case "twocluster":
		return nbody.NewTwoCluster, nil
	}
	return nil, fmt.Errorf("unknown ic %q (want plummer, colddisk or twocluster)", name)
}

func (s *NBodySpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("n %d", s.N)
	}
	if _, err := nbodyIC(s.IC); err != nil {
		return err
	}
	if s.Steps < 0 {
		return fmt.Errorf("steps %d", s.Steps)
	}
	if s.DT <= 0 {
		return fmt.Errorf("dt %g", s.DT)
	}
	if s.Theta <= 0 {
		return fmt.Errorf("theta %g", s.Theta)
	}
	if s.Ranks < 0 || s.Rungs < 0 {
		return fmt.Errorf("ranks %d, rungs %d", s.Ranks, s.Rungs)
	}
	if s.Eta < 0 {
		return fmt.Errorf("eta %g", s.Eta)
	}
	return s.EngineSpec.validate()
}

// NBodyData is the structured result of an nbody run.
type NBodyData struct {
	Particles    int     `json:"particles"`
	Steps        int     `json:"steps"`
	Interactions uint64  `json:"interactions"`
	Flops        uint64  `json:"flops"`
	SimTimeSec   float64 `json:"sim_time_sec,omitempty"`
	EnergyDrift  float64 `json:"energy_drift,omitempty"`
}

func (s *NBodySpec) Run(r *Run) (*SpecResult, error) {
	snap := r.Snap
	var b strings.Builder
	mkIC, err := nbodyIC(s.IC)
	if err != nil {
		return nil, err
	}
	sys := mkIC(s.N, 2001)
	if s.IC != "" {
		fmt.Fprintf(&b, "initial conditions: %s\n", s.IC)
	}
	k0, p0 := 0.0, 0.0
	if s.N <= 20000 {
		k0, p0 = sys.Energy()
	}

	engine := s.resolve()
	var forcer nbody.Forcer
	switch {
	case s.Direct:
		forcer = nbody.DirectForcer{}
	case s.Ranks > 0:
		costs, err := cpu.CalibrateFor(cpu.NewTM5600(), cpu.MissRateTree)
		if err != nil {
			return nil, err
		}
		cm := treecode.CostModel{
			SecondsPerInteraction: costs.Seconds(treecode.InteractionMix()),
			SecondsPerBuildSource: costs.Seconds(treecode.BuildMix()),
		}
		forcer = &nbodyParallelForcer{ranks: s.Ranks, run: r, cfg: treecode.ParallelConfig{
			Theta: s.Theta, Quadrupole: s.Quadrupole, Eps: sys.Eps, Cost: cm,
			Engine: engine,
		}}
	default:
		forcer = &treecode.Forcer{Theta: s.Theta, Quadrupole: s.Quadrupole, Tracer: r.Tracer,
			Engine: engine}
	}

	data := NBodyData{Particles: s.N, Steps: s.Steps}
	var stepper nbody.BlockStepper
	if s.Rungs > 0 {
		err := stepper.Run(sys, forcer, nbody.BlockConfig{DT: s.DT, MaxRung: s.Rungs, Eta: s.Eta}, s.Steps)
		if err != nil {
			return nil, err
		}
		st := stepper.Stats
		fmt.Fprintf(&b, "block timesteps: %d substeps, %d force updates (%d saved vs uniform), max rung %d, histogram %v\n",
			st.Substeps, st.Updates, st.Saved, st.MaxRungUsed, stepper.Histogram())
		snap.SetGauge("nbodysim.rung.max_used", "", "highest block-timestep rung occupied", float64(st.MaxRungUsed))
		snap.SetGauge("nbodysim.rung.updates", "", "per-particle force updates performed", float64(st.Updates))
		snap.SetGauge("nbodysim.rung.saved", "", "force updates avoided vs uniform finest-dt stepping", float64(st.Saved))
	} else {
		if err := sys.Leapfrog(forcer, s.DT, s.Steps); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(&b, "%d particles, %d steps: %d interactions, %.3g flops (treecode convention)\n",
		s.N, s.Steps, sys.Interactions, float64(sys.Flops()))
	data.Interactions = sys.Interactions
	data.Flops = sys.Flops()
	snap.SetGauge("nbodysim.particles", "", "particle count", float64(s.N))
	snap.SetGauge("nbodysim.steps", "", "leapfrog steps", float64(s.Steps))
	switch f := forcer.(type) {
	case *treecode.Forcer:
		snap.Gather(f)
	case *nbodyParallelForcer:
		fmt.Fprintf(&b, "simulated MetaBlade time: %.3f s over %d blades → %.2f Gflops sustained\n",
			f.simTime, s.Ranks, float64(sys.Flops())/f.simTime/1e9)
		snap.SetGauge("nbodysim.sim_time", "s", "accumulated simulated cluster time", f.simTime)
		data.SimTimeSec = f.simTime
	}
	if k0 != 0 || p0 != 0 {
		k1, p1 := sys.Energy()
		drift := math.Abs((k1 + p1 - k0 - p0) / (k0 + p0))
		fmt.Fprintf(&b, "energy drift: |ΔE/E| = %.2e\n", drift)
		snap.SetGauge("nbodysim.energy_drift", "", "relative energy drift over the run", drift)
		data.EnergyDrift = drift
	}
	return &SpecResult{Kind: "nbody", Text: b.String(), Data: data, Extra: sys}, nil
}

// nbodyParallelForcer adapts treecode.ParallelForces to nbody.Forcer,
// accumulating simulated cluster time across steps and gathering each
// step's world and result into the run's snapshot.
type nbodyParallelForcer struct {
	ranks   int
	cfg     treecode.ParallelConfig
	run     *Run
	simTime float64
	step    int
}

func (p *nbodyParallelForcer) Forces(s *nbody.System) error {
	w, err := mpi.NewWorld(p.ranks, netsim.FastEthernet())
	if err != nil {
		return err
	}
	w.Tracer = p.run.Tracer
	sp := p.run.Tracer.Begin(obs.PidHost, 0, "nbodysim", fmt.Sprintf("step%d", p.step))
	res, err := treecode.ParallelForces(w, s, p.cfg)
	if err != nil {
		return err
	}
	sp.End(map[string]any{"sim_time": res.SimTime})
	p.run.Snap.Gather(w, res)
	p.simTime += res.SimTime
	p.step++
	return nil
}

// --- tco ---

// TCOSpec evaluates the paper's cost model — TCO and ToPPeR — for a
// user-described cluster. Zero numeric fields take the toppercalc flag
// defaults, which is fine for quantities that must be positive to mean
// anything; Ambient and KWh are pointers (like NASKernelsSpec.Rate)
// because an explicit zero is physically meaningful there — a 0°C
// machine room, free electricity — so omitted means the default and
// zero means zero.
type TCOSpec struct {
	Nodes       int      `json:"nodes,omitempty"`
	Watts       float64  `json:"watts,omitempty"`
	Acquisition float64  `json:"acquisition,omitempty"`
	Gflops      float64  `json:"gflops,omitempty"`
	Blade       bool     `json:"blade,omitempty"`
	Ambient     *float64 `json:"ambient,omitempty"`
	Years       float64  `json:"years,omitempty"`
	KWh         *float64 `json:"kwh,omitempty"`
	Space       float64  `json:"space,omitempty"`
	CPUHour     float64  `json:"cpu_hour,omitempty"`
}

func (*TCOSpec) Kind() string { return "tco" }

func (s *TCOSpec) Normalize() {
	if s.Nodes == 0 {
		s.Nodes = 24
	}
	if s.Watts == 0 {
		s.Watts = 85
	}
	if s.Acquisition == 0 {
		s.Acquisition = 17000
	}
	if s.Gflops == 0 {
		s.Gflops = 2.8
	}
	if s.Ambient == nil {
		v := 24.0
		s.Ambient = &v
	}
	if s.Years == 0 {
		s.Years = 4
	}
	if s.KWh == nil {
		v := 0.10
		s.KWh = &v
	}
	if s.Space == 0 {
		s.Space = 100
	}
	if s.CPUHour == 0 {
		s.CPUHour = 5
	}
}

func (s *TCOSpec) Validate() error {
	if s.Nodes <= 0 {
		return fmt.Errorf("nodes %d", s.Nodes)
	}
	for name, v := range map[string]float64{
		"watts": s.Watts, "acquisition": s.Acquisition, "gflops": s.Gflops,
		"years": s.Years, "space": s.Space, "cpu_hour": s.CPUHour,
	} {
		if v <= 0 {
			return fmt.Errorf("%s %g", name, v)
		}
	}
	if s.KWh != nil && *s.KWh < 0 {
		return fmt.Errorf("kwh %g", *s.KWh)
	}
	return nil
}

func (s *TCOSpec) Run(r *Run) (*SpecResult, error) {
	snap := r.Snap
	node := cluster.NodeSpec{
		Name:                  "custom node",
		CPUModel:              "custom",
		WattsLoad:             s.Watts,
		RequiresActiveCooling: !s.Blade,
	}
	pack := cluster.TraditionalPackaging()
	admin := tco.TraditionalAdmin()
	outages := tco.TraditionalOutages()
	if s.Blade {
		pack = cluster.BladePackaging()
		admin = tco.BladeAdmin()
		outages = tco.BladeOutages()
	}
	cl, err := cluster.New("custom", node, pack, s.Nodes, *s.Ambient)
	if err != nil {
		return nil, err
	}

	rates := tco.Rates{
		AdminPerHour:       100,
		ElectricityPerKWh:  *s.KWh,
		SpacePerSqFtYear:   s.Space,
		DowntimePerCPUHour: s.CPUHour,
		Years:              s.Years,
	}
	b, err := tco.Compute(tco.Config{
		Name:           "custom",
		AcquisitionUSD: s.Acquisition,
		Cluster:        cl,
		Admin:          admin,
		Outages:        outages,
	}, rates)
	if err != nil {
		return nil, err
	}

	rel := cluster.DefaultReliability()
	var text strings.Builder
	fmt.Fprintf(&text, "Cluster: %d nodes, %.1f kW compute + %.1f kW cooling, %.0f ft², %s\n",
		s.Nodes, cl.ComputePowerKW(), cl.CoolingPowerKW(), cl.FootprintSqFt(), pack.Name)
	fmt.Fprintf(&text, "Reliability model: %.1f expected failures/year, availability %.4f\n\n",
		cl.ExpectedFailuresPerYear(rel), cl.Availability(rel))

	// The cost breakdown lives in the snapshot; the text rendering is the
	// snapshot's own table over the topper.* prefix.
	snap.SetGauge("topper.cost.acquisition", "$", "acquisition cost", b.Acquisition)
	snap.SetGauge("topper.cost.sysadmin", "$", "system administration over the lifetime", b.SysAdmin)
	snap.SetGauge("topper.cost.power_cooling", "$", "power and cooling over the lifetime", b.PowerCooling)
	snap.SetGauge("topper.cost.space", "$", "floor space over the lifetime", b.Space)
	snap.SetGauge("topper.cost.downtime", "$", "downtime charges over the lifetime", b.Downtime)
	snap.SetGauge("topper.cost.tco", "$", "total cost of ownership", b.TCO())
	snap.SetGauge("topper.priceperf", "$/Mflops", "acquisition price/performance", tco.PricePerf(b.Acquisition, s.Gflops))
	snap.SetGauge("topper.topper", "$/Mflops", "total price-performance ratio", tco.ToPPeR(b.TCO(), s.Gflops))
	snap.SetGauge("topper.perf_space", "Mflop/ft2", "performance per floor space", tco.PerfPerSpace(s.Gflops, cl.FootprintSqFt()))
	snap.SetGauge("topper.perf_power", "Gflop/kW", "performance per kilowatt", tco.PerfPerPower(s.Gflops, cl.TotalPowerKW()))
	fmt.Fprintf(&text, "%s\n", snap.Table("Cost of ownership and density ("+cl.Name+")", "topper."))
	return &SpecResult{Kind: "tco", Text: text.String(), Data: b}, nil
}

// --- topperopt ---

// TopperOptSpec runs the ToPPeR design-space optimizer: a deterministic
// parallel sweep over CPU model × packaging × fabric/topology × node
// count × machine-room ambient, each candidate priced through the
// cluster → tco models with its parallel efficiency solved on the
// candidate fabric, emitting the Pareto frontier for ToPPeR, perf/watt
// and perf/space. Empty axes take the product defaults (the five
// Table 1 CPUs, both packagings, Fast and Gigabit Ethernet). The
// frontier is bit-identical at any -procs width, which is what makes
// the spec safely cacheable by hash.
type TopperOptSpec struct {
	// CPUs, Packs and Fabrics are axis names resolved by the designopt
	// parsers: CPUs from Table 1 ("PIII", "Alpha", "TM5600", "Power3",
	// "Athlon"), Packs "traditional"/"blade", Fabrics base[-topology]
	// ("fe", "ge", "ge-fattree", ...).
	CPUs    []string `json:"cpus,omitempty"`
	Packs   []string `json:"packs,omitempty"`
	Fabrics []string `json:"fabrics,omitempty"`
	// Nodes and Ambients are the numeric axes.
	Nodes    []int     `json:"nodes,omitempty"`
	Ambients []float64 `json:"ambients,omitempty"`
	// Particles sizes the treecode workload the designs are scored on.
	Particles int `json:"particles,omitempty"`
	// Budget caps (0 = uncapped): total power, floor space, TCO.
	MaxPowerKW   float64 `json:"max_power_kw,omitempty"`
	MaxSpaceSqFt float64 `json:"max_space_sqft,omitempty"`
	MaxTCOUSD    float64 `json:"max_tco_usd,omitempty"`
	// Years and KWh adjust the paper cost rates; KWh is a pointer so an
	// explicit zero (free electricity) survives, like TCOSpec.KWh.
	Years float64  `json:"years,omitempty"`
	KWh   *float64 `json:"kwh,omitempty"`
}

func (*TopperOptSpec) Kind() string { return "topperopt" }

func (s *TopperOptSpec) Normalize() {
	if len(s.CPUs) == 0 {
		for _, c := range designopt.DefaultCPUChoices() {
			s.CPUs = append(s.CPUs, c.Name)
		}
	}
	if len(s.Packs) == 0 {
		for _, p := range designopt.DefaultPackChoices() {
			s.Packs = append(s.Packs, p.Name)
		}
	}
	if len(s.Fabrics) == 0 {
		for _, f := range designopt.DefaultFabricChoices() {
			s.Fabrics = append(s.Fabrics, f.Name)
		}
	}
	d := designopt.DefaultGrid()
	if len(s.Nodes) == 0 {
		s.Nodes = d.Nodes
	}
	if len(s.Ambients) == 0 {
		s.Ambients = d.Ambients
	}
	if s.Particles == 0 {
		s.Particles = d.Workload.Particles
	}
	if s.Years == 0 {
		s.Years = 4
	}
	if s.KWh == nil {
		v := 0.10
		s.KWh = &v
	}
}

func (s *TopperOptSpec) Validate() error {
	if _, err := s.grid(); err != nil {
		return err
	}
	return nil
}

// grid resolves the spec's axis names into a designopt.Grid.
func (s *TopperOptSpec) grid() (*designopt.Grid, error) {
	g := &designopt.Grid{
		Nodes:    s.Nodes,
		Ambients: s.Ambients,
		Budget: designopt.Budget{
			MaxPowerKW:   s.MaxPowerKW,
			MaxSpaceSqFt: s.MaxSpaceSqFt,
			MaxTCOUSD:    s.MaxTCOUSD,
		},
		Workload: designopt.TreecodeWorkload(s.Particles),
		Rates:    tco.PaperRates(),
		Rel:      cluster.DefaultReliability(),
	}
	g.Rates.Years = s.Years
	if s.KWh != nil {
		g.Rates.ElectricityPerKWh = *s.KWh
	}
	for _, name := range s.CPUs {
		c, err := designopt.ParseCPU(name)
		if err != nil {
			return nil, err
		}
		g.CPUs = append(g.CPUs, c)
	}
	for _, name := range s.Packs {
		p, err := designopt.ParsePack(name)
		if err != nil {
			return nil, err
		}
		g.Packs = append(g.Packs, p)
	}
	for _, name := range s.Fabrics {
		f, err := designopt.ParseFabric(name)
		if err != nil {
			return nil, err
		}
		g.Fabrics = append(g.Fabrics, f)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// TopperOptResult is the structured payload of a topperopt run.
type TopperOptResult struct {
	Candidates int               `json:"candidates"`
	Evaluated  int               `json:"evaluated"`
	Pruned     int               `json:"pruned"`
	Feasible   int               `json:"feasible"`
	MemoHits   uint64            `json:"memo_hits"`
	MemoMisses uint64            `json:"memo_misses"`
	Frontier   []designopt.Point `json:"frontier"`
}

func (s *TopperOptSpec) Run(r *Run) (*SpecResult, error) {
	g, err := s.grid()
	if err != nil {
		return nil, err
	}
	res, err := designopt.Optimize(g)
	if err != nil {
		return nil, err
	}

	snap := r.Snap
	snap.AddCounter("designopt.memo.hit", "lookups", "memoized network-solve cache hits", res.MemoHits)
	snap.AddCounter("designopt.memo.miss", "lookups", "network solves actually computed", res.MemoMisses)
	snap.AddCounter("designopt.pruned", "candidates", "candidates skipped by slab dominance bounds", uint64(res.Pruned))
	snap.AddCounter("designopt.evaluated", "candidates", "candidates scored by the evaluator", uint64(res.Evaluated))
	snap.SetGauge("designopt.frontier", "designs", "Pareto-frontier size", float64(len(res.Frontier)))

	var text strings.Builder
	fmt.Fprintf(&text, "Design space: %d candidates (%d cpus × %d packs × %d fabrics × %d node counts × %d ambients)\n",
		res.Candidates, len(g.CPUs), len(g.Packs), len(g.Fabrics), len(g.Nodes), len(g.Ambients))
	fmt.Fprintf(&text, "Workload: %s; rates: %.0f-year lifetime, $%.2f/kWh\n",
		g.Workload.Name, g.Rates.Years, g.Rates.ElectricityPerKWh)
	fmt.Fprintf(&text, "Evaluated %d, pruned %d (%d of %d slabs), %d feasible; memo %d hits / %d misses\n\n",
		res.Evaluated, res.Pruned, res.SlabsPruned, res.Slabs, res.Feasible, res.MemoHits, res.MemoMisses)
	fmt.Fprintf(&text, "Pareto frontier (%d designs; ToPPeR ↓, perf/watt ↑, perf/space ↑):\n", len(res.Frontier))
	fmt.Fprintf(&text, "%-8s %-12s %-12s %6s %6s %7s %9s %12s %10s %10s %11s\n",
		"CPU", "packaging", "fabric", "nodes", "amb°C", "eff", "Gflops", "TCO $", "$/Mflops", "Gflops/kW", "Mflops/ft²")
	for i := range res.Frontier {
		pt := &res.Frontier[i]
		fmt.Fprintf(&text, "%-8s %-12s %-12s %6d %6.0f %7.3f %9.2f %12.0f %10.2f %10.2f %11.1f\n",
			pt.CPU, pt.Pack, pt.Fabric, pt.Nodes, pt.AmbientC, pt.Eff, pt.Gflops,
			pt.Breakdown.TCO(), pt.ToPPeR, pt.PerfPerWatt, pt.PerfPerSpace)
	}

	return &SpecResult{
		Kind: "topperopt",
		Text: text.String(),
		Data: TopperOptResult{
			Candidates: res.Candidates,
			Evaluated:  res.Evaluated,
			Pruned:     res.Pruned,
			Feasible:   res.Feasible,
			MemoHits:   res.MemoHits,
			MemoMisses: res.MemoMisses,
			Frontier:   res.Frontier,
		},
	}, nil
}
