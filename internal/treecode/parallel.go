package treecode

import (
	"fmt"
	"math"

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
	Quadrupole bool
	Eps        float64
	Cost       CostModel
}

// Decompose returns each rank's particle indices: contiguous runs of the
// (Morton key, index) order with balanced counts — the key-space domain
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
	keys := make([]Key, s.N())
	for i := range keys {
		keys[i] = MortonKey(s.X[i], s.Y[i], s.Z[i], root)
	}
	idx := make([]int, s.N())
	sortKeyPerm(idx, keys, make([]int, s.N()))
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
// on a world of ranks, writing them into s.AX/AY/AZ and adding the
// interaction count to s.Interactions. Each rank owns a Morton-contiguous
// slice of particles, exchanges locally essential sources with every
// other rank, and computes forces for its own particles from a tree over
// local + imported sources.
func ParallelForces(w *mpi.World, s *nbody.System, cfg ParallelConfig) (*ParallelResult, error) {
	return parallelStep(w, s, cfg, true)
}

// ParallelCost prices the step ParallelForces takes without evaluating a
// force: the same decomposition, builds, LET exchange, walks and compute
// charges, so its result — simulated time, Stats, imported sources and
// communication volume — equals ParallelForces' exactly. Each force
// group counts its interaction lists instead of evaluating them. It
// writes nothing into s, so concurrent calls may share one system.
func ParallelCost(w *mpi.World, s *nbody.System, cfg ParallelConfig) (*ParallelResult, error) {
	return parallelStep(w, s, cfg, false)
}

// parallelStep is the one rank body of ParallelForces (eval) and
// ParallelCost (!eval); eval only decides whether force groups evaluate
// their lists and whether the accelerations and the interaction count
// are written into s.
func parallelStep(w *mpi.World, s *nbody.System, cfg ParallelConfig, eval bool) (*ParallelResult, error) {
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

	err = w.Run(func(c *mpi.Comm) error {
		mine := parts[c.Rank()]
		local := make([]Source, len(mine))
		xs := make([]float64, len(mine))
		ys := make([]float64, len(mine))
		zs := make([]float64, len(mine))
		for i, pi := range mine {
			local[i] = Source{X: s.X[pi], Y: s.Y[pi], Z: s.Z[pi], M: s.M[pi], Index: pi}
			xs[i], ys[i], zs[i] = s.X[pi], s.Y[pi], s.Z[pi]
		}
		// Exchange domain bounding boxes (allgather of 4 floats, into a
		// flat pooled buffer: boxes[4r..4r+3] is rank r's box).
		var myBox Box
		if len(mine) > 0 {
			myBox, _ = BoundingBox(xs, ys, zs)
		}
		myBoxBuf := c.AcquireF64(4)
		myBoxBuf[0], myBoxBuf[1], myBoxBuf[2], myBoxBuf[3] = myBox.CX, myBox.CY, myBox.CZ, myBox.Half
		boxes := c.AcquireF64(4 * c.Size())
		c.AllgatherInto(myBoxBuf, boxes)
		c.ReleaseF64(myBoxBuf)
		defer c.ReleaseF64(boxes)

		// Local tree for LET construction. (The error must stay
		// rank-local: assigning the enclosing err from every rank
		// goroutine is a data race.)
		var localTree *Tree
		if len(local) > 0 {
			t0 := c.Now()
			lt, berr := Build(local, BuildOptions{Quadrupole: cfg.Quadrupole})
			if berr != nil {
				return berr
			}
			localTree = lt
			c.AddCompute(cfg.Cost.SecondsPerBuildSource * float64(len(local)))
			span(c, "local_build", t0, map[string]any{"sources": len(local)})
		}

		// Pairwise LET exchange.
		tx0 := c.Now()
		sources := append([]Source(nil), local...)
		p := c.Size()
		for step := 1; step < p; step++ {
			dst := (c.Rank() + step) % p
			src := (c.Rank() - step + p) % p
			var export []Source
			if localTree != nil {
				rb := boxes[4*dst : 4*dst+4]
				remote := Box{CX: rb[0], CY: rb[1], CZ: rb[2], Half: rb[3]}
				if remote.Half > 0 || len(parts[dst]) > 0 {
					export = localTree.letExport(remote, cfg.Theta)
				}
			}
			// Encode into a pooled buffer and hand it over copy-free; the
			// received buffer goes back to the pool once decoded.
			out := c.AcquireF64(4 * len(export))
			encodeSourcesInto(export, out)
			c.SendOwned(dst, step, out)
			wire := c.Recv(src, step)
			in, err := decodeSources(wire)
			c.ReleaseF64(wire)
			if err != nil {
				return err
			}
			sources = append(sources, in...)
			imported[c.Rank()] += int64(len(in))
		}
		span(c, "let_exchange", tx0, map[string]any{"imported": imported[c.Rank()]})

		if len(mine) == 0 {
			return nil
		}
		// Force tree over local + imported sources.
		tb0 := c.Now()
		ft, err := Build(sources, BuildOptions{Quadrupole: cfg.Quadrupole})
		if err != nil {
			return err
		}
		c.AddCompute(cfg.Cost.SecondsPerBuildSource * float64(len(sources)))
		span(c, "force_build", tb0, map[string]any{"sources": len(sources)})
		tf0 := c.Now()
		// Dual-tree traversal over the rank's LET: targets are the
		// rank's own particles (imported sources are Index < 0 and never
		// evaluated), sources the whole local + imported tree.
		var stats Stats
		ar := NewWalkArena()
		for _, ti := range ft.AppendGroups(nil, DualTaskSize) {
			ft.dualWalk(ti, cfg.Theta, cfg.Eps, nil, ar, &stats, eval)
			for k := 0; k < ar.NumTargets(); k++ {
				pi, ax, ay, az := ar.Target(k)
				s.AX[pi] = s.G * ax
				s.AY[pi] = s.G * ay
				s.AZ[pi] = s.G * az
			}
		}
		ar.FlushTelemetry()
		c.AddCompute(cfg.Cost.SecondsPerInteraction * float64(stats.Interactions()))
		span(c, "forces", tf0, map[string]any{"pp": stats.PP, "pc": stats.PC})
		perRank[c.Rank()] = stats
		return nil
	})
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
	if eval {
		s.Interactions += res.Stats.Interactions()
	}
	return res, nil
}
