package treecode

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/isa"
	"repro/internal/mpi"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/par"
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
// decomposition of the Warren–Salmon treecode.
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

// letExport appends to out the sources a remote domain needs from the
// local tree: cells far enough from the remote bounding box (under the
// MAC) export their monopole as a pseudo-particle; near cells recurse;
// near leaves export their actual particles.
func (t *Tree) letExport(out []Source, remote Box, theta float64) []Source {
	th2 := theta * theta
	for i := int32(0); i < int32(len(t.Nodes)); {
		n := &t.Nodes[i]
		if n.M == 0 {
			i = n.Skip
			continue
		}
		// The MAC reads the box's size, not Size2: a lone source far
		// enough away is exported as a pseudo-particle.
		box := t.Boxes[i]
		size := 2 * box.Half
		if size*size < th2*boxToBoxDist2(box, remote) {
			out = append(out, Source{X: n.CX, Y: n.CY, Z: n.CZ, M: n.M, Index: -1})
			i = n.Skip
			continue
		}
		if !n.Leaf {
			i++
			continue
		}
		out = append(out, t.Sources[n.First:n.First+n.Count]...)
		i = n.Skip
	}
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

// encodeSourcesInto flattens sources for the wire (x, y, z, m per
// source) into a caller buffer of length 4·len(srcs) — one drawn from
// the rank's pool, handed to SendOwned for a copy-free exchange.
func encodeSourcesInto(srcs []Source, out []float64) {
	for i, s := range srcs {
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = s.X, s.Y, s.Z, s.M
	}
}

// decodeSourcesInto unpacks a wire payload into dst, which holds
// len(wire)/4 sources. Imported sources become pseudo-particles: Index
// is never remote-valid.
func decodeSourcesInto(dst []Source, wire []float64) error {
	if len(wire)%4 != 0 {
		return fmt.Errorf("treecode: bad source payload length %d", len(wire))
	}
	for i := range dst {
		dst[i] = Source{X: wire[4*i], Y: wire[4*i+1], Z: wire[4*i+2], M: wire[4*i+3], Index: -1}
	}
	return nil
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
//
// A rank runs in two phases. The exchange phase builds the local tree
// and trades locally essential sources with every other rank, keeping
// the received wire buffers. The force phase decodes them, builds the
// force tree over local + imported sources and walks it; it does no
// communication, so it runs under the process-wide force gate on a
// reused forceScratch (see forceSlot). Both builds are serial: the
// host's parallelism is the world's ranks, which run concurrently.
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
	opt := BuildOptions{Quadrupole: cfg.Quadrupole}

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
		for i, pi := range mine {
			local[i] = Source{X: s.X[pi], Y: s.Y[pi], Z: s.Z[pi], M: s.M[pi], Index: pi}
		}
		// Exchange domain bounding boxes (allgather of 4 floats, into a
		// flat pooled buffer: boxes[4r..4r+3] is rank r's box).
		var myBox Box
		if len(local) > 0 {
			myBox, _ = sourceBounds(local)
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
			lt, berr := Build(local, opt)
			if berr != nil {
				return berr
			}
			localTree = lt
			c.AddCompute(cfg.Cost.SecondsPerBuildSource * float64(len(local)))
			span(c, "local_build", t0, map[string]any{"sources": len(local)})
		}

		// Pairwise LET exchange. Each step's export reuses one buffer;
		// the received wire buffers stay held until the force phase
		// decodes them, and go back to the pool when the rank ends.
		tx0 := c.Now()
		p := c.Size()
		wires := make([][]float64, 0, p-1)
		defer func() {
			for _, wire := range wires {
				c.ReleaseF64(wire)
			}
		}()
		var export []Source
		for step := 1; step < p; step++ {
			dst := (c.Rank() + step) % p
			src := (c.Rank() - step + p) % p
			export = export[:0]
			if localTree != nil {
				rb := boxes[4*dst : 4*dst+4]
				remote := Box{CX: rb[0], CY: rb[1], CZ: rb[2], Half: rb[3]}
				if remote.Half > 0 || len(parts[dst]) > 0 {
					export = localTree.letExport(export, remote, cfg.Theta)
				}
			}
			out := c.AcquireF64(4 * len(export))
			encodeSourcesInto(export, out)
			c.SendOwned(dst, step, out)
			wire := c.Recv(src, step)
			wires = append(wires, wire)
			imported[c.Rank()] += int64(len(wire) / 4)
		}
		span(c, "let_exchange", tx0, map[string]any{"imported": imported[c.Rank()]})

		if len(mine) == 0 {
			return nil
		}
		return forceSlot(func(sc *forceScratch) error {
			// Force tree over local + imported sources.
			srcs, err := sc.gather(local, wires)
			if err != nil {
				return err
			}
			tb0 := c.Now()
			ft, err := sc.build(srcs, opt)
			if err != nil {
				return err
			}
			c.AddCompute(cfg.Cost.SecondsPerBuildSource * float64(len(srcs)))
			span(c, "force_build", tb0, map[string]any{"sources": len(srcs)})
			tf0 := c.Now()
			// Dual-tree traversal over the rank's LET: targets are the
			// rank's own particles (imported sources are Index < 0 and
			// never evaluated), sources the whole local + imported tree.
			var stats Stats
			ar := sc.arena
			sc.tasks = ft.AppendGroups(sc.tasks[:0], DualTaskSize)
			for _, ti := range sc.tasks {
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

// The force gate bounds how many ranks, across every world in the
// process, run a force phase at once: at most par.Workers(), read at
// each acquisition. A world's ranks are goroutines, so without it
// every live rank of every concurrent world would hold a force tree
// grown to its whole locally essential set at the same time. A slot is
// taken only after the rank's last receive and its holder never waits
// on another rank, so the gate cannot deadlock a world.
//
// Each holder works on a scratch from scratchFree, the idle scratches
// the gate's mutex guards. A scratch is made only when a holder finds
// the list empty, and the list keeps at most par.Workers() of them, so
// the process holds no more scratches than the gate has ever had
// slots; they stay for the life of the process, each sized to the
// largest force phase it served.
var (
	gateMu      sync.Mutex
	gateFree    = sync.NewCond(&gateMu)
	gateHeld    int
	scratchFree []*forceScratch
)

// forceSlot runs fn under a force-gate slot with an idle scratch. The
// slot goes back on every path out of fn, a panic included; the
// scratch goes back to the idle list only when fn returns, so storage
// a panic left half written is dropped.
func forceSlot(fn func(sc *forceScratch) error) error {
	gateMu.Lock()
	for gateHeld >= par.Workers() {
		gateFree.Wait()
	}
	gateHeld++
	var sc *forceScratch
	if n := len(scratchFree); n > 0 {
		sc = scratchFree[n-1]
		scratchFree[n-1] = nil
		scratchFree = scratchFree[:n-1]
	} else {
		sc = &forceScratch{arena: &WalkArena{}}
	}
	gateMu.Unlock()
	returned := false
	defer func() {
		gateMu.Lock()
		gateHeld--
		if returned && len(scratchFree) < par.Workers() {
			scratchFree = append(scratchFree, sc)
		}
		gateMu.Unlock()
		gateFree.Broadcast()
	}()
	err := fn(sc)
	returned = true
	return err
}

// gather lays the rank's local sources and its decoded imports, in
// exchange order, into the scratch's source buffer and returns it.
func (sc *forceScratch) gather(local []Source, wires [][]float64) ([]Source, error) {
	n := len(local)
	for _, wire := range wires {
		n += len(wire) / 4
	}
	srcs := growSources(sc.srcs, n)
	sc.srcs = srcs
	off := copy(srcs, local)
	for _, wire := range wires {
		k := len(wire) / 4
		if err := decodeSourcesInto(srcs[off:off+k], wire); err != nil {
			return nil, err
		}
		off += k
	}
	return srcs, nil
}
