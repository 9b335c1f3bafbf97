package treecode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/obs"
)

// CostModel converts counted work into modelled seconds on a target
// processor; the mpi layer adds communication time from its fabric, so a
// parallel run yields the simulated runtime on the modelled cluster.
type CostModel struct {
	// SecondsPerInteraction covers one gravity interaction (the inner
	// kernel the microbenchmark measures).
	SecondsPerInteraction float64
	// SecondsPerBuildSource covers key generation, sorting amortized, and
	// moment accumulation per source in tree construction.
	SecondsPerBuildSource float64
}

// InteractionMix returns the per-interaction operation mix used to derive
// SecondsPerInteraction from a processor's calibrated op costs. Beyond
// the arithmetic kernel (differences, r² reduction, reciprocal square
// root, accumulation) it carries the amortized tree-walk overhead each
// accepted interaction drags along — node fetches (pointer-chasing
// loads), MAC distance tests, and the walk's branches — which is what
// makes real treecodes memory- and branch-sensitive rather than pure
// flops.
func InteractionMix() *isa.Trace {
	var tr isa.Trace
	tr.ByClass[isa.ClassLoad] = 20
	tr.ByClass[isa.ClassFPAdd] = 16
	tr.ByClass[isa.ClassFPMul] = 18
	tr.ByClass[isa.ClassFPSqrt] = 1
	tr.ByClass[isa.ClassIntALU] = 16
	tr.ByClass[isa.ClassBranch] = 6
	tr.Flops = nbody.FlopsPerInteraction
	tr.Instrs = 77
	return &tr
}

// BuildMix returns the per-source tree-construction mix (integer-heavy:
// key twiddling, sorting, pointer chasing).
func BuildMix() *isa.Trace {
	var tr isa.Trace
	tr.ByClass[isa.ClassIntALU] = 40
	tr.ByClass[isa.ClassLoad] = 12
	tr.ByClass[isa.ClassStore] = 6
	tr.ByClass[isa.ClassFPAdd] = 8
	tr.ByClass[isa.ClassFPMul] = 6
	tr.ByClass[isa.ClassBranch] = 8
	tr.Instrs = 80
	return &tr
}

// ParallelConfig configures a distributed force computation.
type ParallelConfig struct {
	Theta      float64
	Bucket     int
	Quadrupole bool
	Eps        float64
	Cost       CostModel
	// Engine selects each rank's force-evaluation engine. The zero
	// value (EngineAuto) resolves through ErrorBudget, like
	// Forcer.Engine.
	Engine Engine
	// ErrorBudget tunes EngineAuto (see Forcer.ErrorBudget).
	ErrorBudget float64
}

// Decompose returns each rank's particle indices: contiguous runs of the
// Morton-sorted order with balanced counts — the key-space domain
// decomposition of the hashed treecode.
func Decompose(s *nbody.System, p int) ([][]int, error) {
	if p <= 0 {
		return nil, fmt.Errorf("treecode: bad rank count %d", p)
	}
	if s.N() == 0 {
		return nil, fmt.Errorf("treecode: empty system")
	}
	root, err := BoundingBox(s.X, s.Y, s.Z)
	if err != nil {
		return nil, err
	}
	idx := make([]int, s.N())
	keys := make([]Key, s.N())
	for i := range idx {
		idx[i] = i
		keys[i] = MortonKey(s.X[i], s.Y[i], s.Z[i], root)
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]int, p)
	n := s.N()
	for r := 0; r < p; r++ {
		lo := r * n / p
		hi := (r + 1) * n / p
		out[r] = idx[lo:hi:hi]
	}
	return out, nil
}

// boxToBoxDist2 returns the squared minimum distance between two boxes
// (0 if they overlap) — the geometry of Salmon's locally-essential-tree
// pruning. The squared form is
// the primitive; takers of actual distances wrap it in a square root.
func boxToBoxDist2(a, b Box) float64 {
	gap := func(ca, ha, cb, hb float64) float64 {
		d := math.Abs(ca-cb) - ha - hb
		if d < 0 {
			return 0
		}
		return d
	}
	dx := gap(a.CX, a.Half, b.CX, b.Half)
	dy := gap(a.CY, a.Half, b.CY, b.Half)
	dz := gap(a.CZ, a.Half, b.CZ, b.Half)
	return dx*dx + dy*dy + dz*dz
}

// boxToBoxDist returns the minimum distance between two boxes (0 if
// they overlap).
func boxToBoxDist(a, b Box) float64 {
	return math.Sqrt(boxToBoxDist2(a, b))
}

// letExport walks the local tree and collects the sources a remote domain
// needs: cells far enough from the remote bounding box (under the MAC)
// export their monopole as a pseudo-particle; near cells recurse; near
// leaves export their actual particles.
func (t *Tree) letExport(remote Box, theta float64) []Source {
	var out []Source
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &t.Nodes[ni]
		if n.M == 0 {
			return
		}
		size := 2 * n.Box.Half
		d2 := boxToBoxDist2(n.Box, remote)
		if size*size < theta*theta*d2 {
			out = append(out, Source{X: n.CX, Y: n.CY, Z: n.CZ, M: n.M, Index: -1})
			return
		}
		if n.Leaf {
			out = append(out, t.Sources[n.First:n.First+n.Count]...)
			return
		}
		for _, ci := range n.Children {
			if ci >= 0 {
				walk(ci)
			}
		}
	}
	walk(0)
	return out
}

// ParallelResult reports one distributed force computation.
type ParallelResult struct {
	// SimTime is the makespan (max rank virtual time).
	SimTime float64
	// Stats aggregates interaction counts across ranks.
	Stats Stats
	// CommBytes / CommMessages summarize exchange volume.
	CommBytes    int64
	CommMessages int64
	// ImportedSources is the total pseudo/real sources imported.
	ImportedSources int64
}

// encodeSources flattens sources for the wire (x, y, z, m per source;
// imported sources become pseudo-particles — Index is never remote-valid).
func encodeSources(srcs []Source) []float64 {
	out := make([]float64, 4*len(srcs))
	encodeSourcesInto(srcs, out)
	return out
}

// encodeSourcesInto flattens sources into a caller buffer of length
// 4·len(srcs) — typically one drawn from the rank's pool, handed to
// SendOwned for a copy-free exchange.
func encodeSourcesInto(srcs []Source, out []float64) {
	for i, s := range srcs {
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = s.X, s.Y, s.Z, s.M
	}
}

func decodeSources(data []float64) ([]Source, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("treecode: bad source payload length %d", len(data))
	}
	out := make([]Source, len(data)/4)
	for i := range out {
		out[i] = Source{X: data[4*i], Y: data[4*i+1], Z: data[4*i+2], M: data[4*i+3], Index: -1}
	}
	return out, nil
}

// ParallelForces computes softened accelerations for every particle of s
// on a world of ranks, writing them into s.AX/AY/AZ. Each rank owns a
// Morton-contiguous slice of particles, exchanges locally essential
// sources with every other rank, and computes forces for its own
// particles from a tree over local + imported sources.
func ParallelForces(w *mpi.World, s *nbody.System, cfg ParallelConfig) (*ParallelResult, error) {
	if cfg.Theta <= 0 {
		cfg.Theta = 0.7
	}
	parts, err := Decompose(s, w.Size())
	if err != nil {
		return nil, err
	}
	res := &ParallelResult{}
	perRank := make([]Stats, w.Size())
	imported := make([]int64, w.Size())

	// span records a virtual-time phase span for a rank on the world's
	// tracer (nil-safe): the simulated-cluster time domain, seconds
	// rendered as microsecond ticks.
	span := func(c *mpi.Comm, name string, startSec float64, args map[string]any) {
		if w.Tracer == nil {
			return
		}
		w.Tracer.Complete(obs.PidSim, c.Rank(), "treecode", name,
			startSec*1e6, (c.Now()-startSec)*1e6, args)
	}

	mkState := func() *forcesState {
		return &forcesState{
			s: s, cfg: cfg, parts: parts,
			perRank: perRank, imported: imported, span: span,
		}
	}
	if w.EventMode() {
		err = w.RunEvent(func(c *mpi.Comm) mpi.Proc {
			return &forcesProc{st: mkState()}
		})
	} else {
		err = w.Run(func(c *mpi.Comm) error {
			st := mkState()
			st.setup(c)
			c.AllgatherInto(st.myBoxBuf, st.boxes)
			if err := st.afterGather(c); err != nil {
				return err
			}
			p := c.Size()
			for step := 1; step < p; step++ {
				st.letSend(c, step)
				wire := c.Recv((c.Rank()-step+p)%p, step)
				if err := st.letAbsorb(c, wire); err != nil {
					return err
				}
			}
			return st.finish(c)
		})
	}
	if err != nil {
		return nil, err
	}
	for r, st := range perRank {
		res.Stats.PP += st.PP
		res.Stats.PC += st.PC
		res.ImportedSources += imported[r]
	}
	res.SimTime = w.MaxTime()
	res.CommBytes = w.TotalBytes()
	res.CommMessages = w.TotalMessages()
	s.Interactions += res.Stats.Interactions()
	return res, nil
}

// forcesState is one rank's ParallelForces program split at its
// collectives and exchange receives, so the goroutine closure and the
// event-mode forcesProc run the identical phase sequence (setup →
// allgather → afterGather → LET exchange → finish) with the same pool
// traffic, compute charges and tracer spans.
type forcesState struct {
	s        *nbody.System
	cfg      ParallelConfig
	parts    [][]int
	perRank  []Stats
	imported []int64
	span     func(c *mpi.Comm, name string, startSec float64, args map[string]any)

	mine      []int
	local     []Source
	myBoxBuf  []float64
	boxes     []float64
	localTree *Tree
	sources   []Source
	tx0       float64
}

// setup builds the rank's local sources and stages the bounding-box
// allgather buffers (boxes[4r..4r+3] is rank r's box).
func (st *forcesState) setup(c *mpi.Comm) {
	st.mine = st.parts[c.Rank()]
	st.local = make([]Source, len(st.mine))
	xs := make([]float64, len(st.mine))
	ys := make([]float64, len(st.mine))
	zs := make([]float64, len(st.mine))
	for i, pi := range st.mine {
		st.local[i] = Source{X: st.s.X[pi], Y: st.s.Y[pi], Z: st.s.Z[pi], M: st.s.M[pi], Index: pi}
		xs[i], ys[i], zs[i] = st.s.X[pi], st.s.Y[pi], st.s.Z[pi]
	}
	var myBox Box
	if len(st.mine) > 0 {
		myBox, _ = BoundingBox(xs, ys, zs)
	}
	st.myBoxBuf = c.AcquireF64(4)
	st.myBoxBuf[0], st.myBoxBuf[1], st.myBoxBuf[2], st.myBoxBuf[3] = myBox.CX, myBox.CY, myBox.CZ, myBox.Half
	st.boxes = c.AcquireF64(4 * c.Size())
}

// afterGather recycles the box buffer and builds the local tree for
// LET construction, then opens the exchange phase.
func (st *forcesState) afterGather(c *mpi.Comm) error {
	c.ReleaseF64(st.myBoxBuf)
	if len(st.local) > 0 {
		t0 := c.Now()
		lt, berr := Build(st.local, BuildOptions{Bucket: st.cfg.Bucket, Quadrupole: st.cfg.Quadrupole})
		if berr != nil {
			return berr
		}
		st.localTree = lt
		c.AddCompute(st.cfg.Cost.SecondsPerBuildSource * float64(len(st.local)))
		st.span(c, "local_build", t0, map[string]any{"sources": len(st.local)})
	}
	st.tx0 = c.Now()
	st.sources = append([]Source(nil), st.local...)
	return nil
}

// letSend exports the locally essential sources for the step's
// destination and hands them over copy-free in a pooled buffer.
func (st *forcesState) letSend(c *mpi.Comm, step int) {
	dst := (c.Rank() + step) % c.Size()
	var export []Source
	if st.localTree != nil {
		rb := st.boxes[4*dst : 4*dst+4]
		remote := Box{CX: rb[0], CY: rb[1], CZ: rb[2], Half: rb[3]}
		if remote.Half > 0 || len(st.parts[dst]) > 0 {
			export = st.localTree.letExport(remote, st.cfg.Theta)
		}
	}
	out := c.AcquireF64(4 * len(export))
	encodeSourcesInto(export, out)
	c.SendOwned(dst, step, out)
}

// letAbsorb decodes one received export, recycling the wire buffer.
func (st *forcesState) letAbsorb(c *mpi.Comm, wire []float64) error {
	in, err := decodeSources(wire)
	c.ReleaseF64(wire)
	if err != nil {
		return err
	}
	st.sources = append(st.sources, in...)
	st.imported[c.Rank()] += int64(len(in))
	return nil
}

// finish builds the force tree over local + imported sources, runs the
// configured engine over the rank's own particles, and records stats.
func (st *forcesState) finish(c *mpi.Comm) error {
	s, cfg := st.s, st.cfg
	st.span(c, "let_exchange", st.tx0, map[string]any{"imported": st.imported[c.Rank()]})

	if len(st.mine) == 0 {
		c.ReleaseF64(st.boxes)
		return nil
	}
	// Force tree over local + imported sources.
	tb0 := c.Now()
	ft, err := Build(st.sources, BuildOptions{Bucket: cfg.Bucket, Quadrupole: cfg.Quadrupole})
	if err != nil {
		return err
	}
	c.AddCompute(cfg.Cost.SecondsPerBuildSource * float64(len(st.sources)))
	st.span(c, "force_build", tb0, map[string]any{"sources": len(st.sources)})
	tf0 := c.Now()
	var stats Stats
	if ResolveEngine(cfg.Engine, cfg.ErrorBudget) == EngineDual {
		// Dual-tree traversal over the rank's LET: targets are the
		// rank's own particles (imported sources are Index < 0 and
		// never evaluated), sources the whole local + imported tree.
		ar := NewWalkArena()
		for _, ti := range ft.AppendGroups(nil, DualTaskSize) {
			ft.DualForceWalk(ti, cfg.Theta, cfg.Eps, nil, ar, &stats)
			for k := 0; k < ar.NumTargets(); k++ {
				pi, ax, ay, az := ar.Target(k)
				s.AX[pi] = s.G * ax
				s.AY[pi] = s.G * ay
				s.AZ[pi] = s.G * az
			}
		}
		ar.FlushTelemetry()
	} else {
		for _, pi := range st.mine {
			ax, ay, az := ft.ForceAt(s.X[pi], s.Y[pi], s.Z[pi], pi, cfg.Theta, cfg.Eps, &stats)
			s.AX[pi] = s.G * ax
			s.AY[pi] = s.G * ay
			s.AZ[pi] = s.G * az
		}
	}
	c.AddCompute(cfg.Cost.SecondsPerInteraction * float64(stats.Interactions()))
	st.span(c, "forces", tf0, map[string]any{"pp": stats.PP, "pc": stats.PC})
	st.perRank[c.Rank()] = stats
	c.ReleaseF64(st.boxes)
	return nil
}

// forcesProc is ParallelForces's resumable rank program for the event
// scheduler: the shared phases strung between the allgather state
// machine and the LET exchange's pending receives.
type forcesProc struct {
	pc   int
	st   *forcesState
	ag   mpi.AllgatherIntoState
	step int
	sent bool
}

func (p *forcesProc) Resume(c *mpi.Comm) (bool, error) {
	st := p.st
	if p.pc == 0 {
		st.setup(c)
		p.ag.Start(c, st.myBoxBuf, st.boxes)
		p.pc = 1
	}
	if p.pc == 1 {
		if !p.ag.Step(c) {
			return false, nil
		}
		if err := st.afterGather(c); err != nil {
			return true, err
		}
		p.step = 1
		p.pc = 2
	}
	for n := c.Size(); p.step < n; p.step++ {
		if !p.sent {
			st.letSend(c, p.step)
			p.sent = true
		}
		wire, ok := c.TryRecvF64((c.Rank()-p.step+n)%n, p.step)
		if !ok {
			return false, nil
		}
		if err := st.letAbsorb(c, wire); err != nil {
			return true, err
		}
		p.sent = false
	}
	return true, st.finish(c)
}
