package designopt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/tco"
)

// Memo caches the netsim efficiency solves, keyed by (fabric index,
// node-count index) — the workload is fixed per Grid, so those two
// coordinates identify a solve. Cells are solved at most once; the
// hit/miss counts are deterministic because a racing reader that finds
// the lock held waits and counts as a hit (exactly one goroutine ever
// counts the miss for a cell).
type Memo struct {
	cells  []memoCell
	np     int
	hits   atomic.Uint64
	misses atomic.Uint64
}

type memoCell struct {
	done atomic.Uint32
	mu   sync.Mutex
	comm float64
}

// NewMemo sizes a memo table for a grid.
func NewMemo(g *Grid) *Memo {
	return &Memo{
		cells: make([]memoCell, len(g.Fabrics)*len(g.Nodes)),
		np:    len(g.Nodes),
	}
}

// Hits and Misses report the lookup counters.
func (m *Memo) Hits() uint64   { return m.hits.Load() }
func (m *Memo) Misses() uint64 { return m.misses.Load() }

// Evaluator scores candidates against one grid. It owns a scratch
// cluster so the steady-state Eval path allocates nothing; use one
// Evaluator per worker.
type Evaluator struct {
	g       *Grid
	memo    *Memo
	scratch cluster.Cluster
}

// NewEvaluator builds a per-worker evaluator over a shared memo, which
// must not be nil.
func NewEvaluator(g *Grid, memo *Memo) *Evaluator {
	if memo == nil {
		panic("designopt: NewEvaluator needs a memo")
	}
	return &Evaluator{g: g, memo: memo}
}

// solveComm runs the network solve for (fabric fi, node count at ni):
// copy the fabric template, size the topology to p, and price the
// workload's communication schedule on it.
func (e *Evaluator) solveComm(fi, ni int) float64 {
	fc := &e.g.Fabrics[fi]
	p := e.g.Nodes[ni]
	f := *fc.Template
	if err := netsim.ApplyTopology(&f, fc.Topology, p); err != nil {
		// Grid fabrics are parsed through ParseFabric, so the only
		// way here is a hand-built grid with a bad topology name;
		// treat the fabric as unusable (efficiency 0 → infeasible)
		// rather than poison the sweep.
		return math.Inf(1)
	}
	return e.g.Workload.CommSecondsPerStep(&f, p)
}

// commSeconds returns the memoized network solve.
func (e *Evaluator) commSeconds(fi, ni int) float64 {
	c := &e.memo.cells[fi*e.memo.np+ni]
	if c.done.Load() == 1 {
		e.memo.hits.Add(1)
		return c.comm
	}
	c.mu.Lock()
	if c.done.Load() == 0 {
		c.comm = e.solveComm(fi, ni)
		c.done.Store(1)
		c.mu.Unlock()
		e.memo.misses.Add(1)
		return c.comm
	}
	v := c.comm
	c.mu.Unlock()
	e.memo.hits.Add(1)
	return v
}

// Point is one evaluated design: the candidate coordinates plus the
// three Pareto objectives and their supporting figures.
type Point struct {
	CPU      string  `json:"cpu"`
	Pack     string  `json:"pack"`
	Fabric   string  `json:"fabric"`
	Nodes    int     `json:"nodes"`
	AmbientC float64 `json:"ambient_c"`

	Eff    float64 `json:"eff"`     // parallel efficiency on the fabric
	Gflops float64 `json:"gflops"`  // delivered performance
	TCOUSD float64 `json:"tco_usd"` // total cost of ownership

	ToPPeR       float64 `json:"topper"`         // $/Mflops — minimize
	PerfPerWatt  float64 `json:"perf_per_watt"`  // Gflops/kW — maximize
	PerfPerSpace float64 `json:"perf_per_space"` // Mflops/ft² — maximize

	Breakdown tco.Breakdown `json:"breakdown"`
}

// Eval scores the candidate at (cpu ci, pack ki, fabric fi, nodes ni,
// ambient ai) into out and reports whether it is feasible. Degenerate
// node specs (zero rate, zero watts) and budget violations are
// infeasible, never NaN. The steady-state path (memo hit) allocates
// nothing.
func (e *Evaluator) Eval(ci, ki, fi, ni, ai int, out *Point) bool {
	g := e.g
	cp := &g.CPUs[ci]
	pk := &g.Packs[ki]
	fb := &g.Fabrics[fi]
	p := g.Nodes[ni]
	amb := g.Ambients[ai]

	// Degenerate-input guard: a node that computes nothing or draws
	// nothing cannot be priced (ToPPeR and perf/watt would divide by
	// zero); the sweep skips it instead of letting NaN reach the
	// frontier.
	if !(cp.MflopsPerCPU > 0) || !(cp.Node.WattsLoad > 0) || p <= 0 {
		return false
	}

	e.scratch = cluster.Cluster{
		Name:     cp.Name,
		Node:     cp.Node,
		Pack:     pk.Pack,
		Nodes:    p,
		AmbientC: amb,
	}
	cl := &e.scratch

	comm := 0.0
	if p > 1 {
		comm = e.commSeconds(fi, ni)
	}
	eff := g.Workload.Efficiency(cp.MflopsPerCPU, p, comm)
	gflops := cp.MflopsPerCPU * float64(p) * eff / 1000
	if !(gflops > 0) {
		return false
	}

	// Admin and outage profiles follow the packaging, with the
	// paper's 24-node labour figures scaled to the candidate size and
	// the outage rate taken from the thermal failure model — this is
	// where ambient temperature enters the cost side.
	fails := cl.ExpectedFailuresPerYear(g.Rel)
	scale := float64(p) / 24
	var admin tco.AdminProfile
	var outages tco.OutageProfile
	if pk.Blade {
		admin = tco.AdminProfile{SetupHours: 2.5 * scale, AnnualRepairUSD: 1200 * fails}
		outages = tco.OutageProfile{OutagesPerYear: fails, HoursPerOutage: 1, WholeCluster: false}
	} else {
		admin = tco.AdminProfile{SetupHours: 40 * scale, AnnualLabourUSD: 14000 * scale}
		outages = tco.OutageProfile{OutagesPerYear: fails, HoursPerOutage: g.Rel.RepairHours, WholeCluster: true}
	}

	acq := float64(p) * (cp.AcqPerNodeUSD + fb.PortCostUSD)
	b, err := tco.Compute(tco.Config{
		Name:           cp.Name,
		AcquisitionUSD: acq,
		Cluster:        cl,
		Admin:          admin,
		Outages:        outages,
	}, g.Rates)
	if err != nil {
		return false
	}

	total := b.TCO()
	powerKW := cl.TotalPowerKW()
	sqft := cl.FootprintSqFt()
	if bd := g.Budget; (bd.MaxPowerKW > 0 && powerKW > bd.MaxPowerKW) ||
		(bd.MaxSpaceSqFt > 0 && sqft > bd.MaxSpaceSqFt) ||
		(bd.MaxTCOUSD > 0 && total > bd.MaxTCOUSD) {
		return false
	}

	out.CPU = cp.Name
	out.Pack = pk.Name
	out.Fabric = fb.Name
	out.Nodes = p
	out.AmbientC = amb
	out.Eff = eff
	out.Gflops = gflops
	out.TCOUSD = total
	out.ToPPeR = tco.ToPPeR(total, gflops)
	out.PerfPerWatt = tco.PerfPerPower(gflops, powerKW)
	out.PerfPerSpace = tco.PerfPerSpace(gflops, sqft)
	out.Breakdown = b
	return true
}

// String renders a point for error messages and logs.
func (pt *Point) String() string {
	return fmt.Sprintf("%s/%s/%s p=%d %g°C: %.2f Gflops eff=%.3f ToPPeR=%.2f $/Mflops %.2f Gf/kW %.1f Mf/ft²",
		pt.CPU, pt.Pack, pt.Fabric, pt.Nodes, pt.AmbientC, pt.Gflops, pt.Eff, pt.ToPPeR, pt.PerfPerWatt, pt.PerfPerSpace)
}
