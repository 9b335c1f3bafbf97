package treecode

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/par"
)

// Source is a gravitating point: a particle or an exported cell's
// monopole (pseudo-particle).
type Source struct {
	X, Y, Z, M float64
	// Index is ≥ 0 for a real local particle (its index in the target
	// system) and -1 for a pseudo-particle, which can never be "self".
	Index int
}

// Node is one tree cell, the record every traversal reads. Nodes are
// stored in DFS preorder (child octants 0..7), so a cell's subtree is
// the index range [i, Skip): its first child, if any, is i+1, and each
// child's Skip is its next sibling (or the parent's Skip after the last
// child). A traversal descends with i++ and prunes with i = Skip, a
// forward pass with no stack. The record is 56 bytes; the cell's box
// lives in the tree's parallel Boxes array and its quadrupole in Quad.
type Node struct {
	// Monopole moment: centre of mass and mass.
	CX, CY, CZ, M float64
	// Size2 pre-folds the multipole acceptance test's eligibility:
	// (2·Half)² for cells the MAC may accept, +Inf for single-source
	// leaves (a lone source is never replaced by its own monopole).
	Size2 float64
	// Skip is the "rope": the index of the node after this subtree.
	Skip int32
	// First/Count index the tree's key-ordered source permutation: the
	// subtree's sources are Sources[First : First+Count].
	First, Count int32
	Leaf         bool
}

// Tree is a bucketed oct-tree over a set of sources, its nodes in DFS
// preorder threaded by Skip ropes.
type Tree struct {
	Root  Box
	Nodes []Node
	// Boxes[i] is node i's cube.
	Boxes []Box
	// Quad holds node i's traceless Cartesian quadrupole moments at
	// Quad[6i:6i+6] (XX, YY, ZZ, XY, XZ, YZ) when the tree is built with
	// quadrupoles, and is empty otherwise.
	Quad    []float64
	Sources []Source // key-sorted
	Bucket  int
	// Quadrupole enables second-order moments in cell interactions.
	Quadrupole bool
}

// BuildOptions configure tree construction.
type BuildOptions struct {
	Bucket     int  // max particles per leaf (default 8)
	Quadrupole bool // compute quadrupole moments
}

// maxDepth bounds subdivision, one level short of the key resolution:
// coincident particles share a leaf at this depth.
const maxDepth = KeyBits - 1

// Build constructs a tree over the sources.
func Build(sources []Source, opt BuildOptions) (*Tree, error) {
	n := len(sources)
	t := &Tree{}
	if err := buildTree(t, sources, normalizeBuildOptions(opt), make([]Key, n), make([]int, n), make([]int, n), make([]Key, n)); err != nil {
		return nil, err
	}
	return t, nil
}

// normalizeBuildOptions applies the Bucket default.
func normalizeBuildOptions(opt BuildOptions) BuildOptions {
	if opt.Bucket <= 0 {
		opt.Bucket = 8
	}
	return opt
}

// buildTree is the one build pipeline, shared by Build and
// forceScratch.build: the root box fold, Morton keys into keys, the
// (key, index) sort of perm (sortKeyPerm, with scratch as its second
// buffer), the permutation of the sources into key order
// (sortedKeys[i] = keys[perm[i]]) and the serial recursive builder.
// opt is normalized; keys, perm, scratch and sortedKeys must each have
// len(srcs) elements. The tree is built into t, reusing the capacity of
// its Sources, Nodes, Boxes and Quad arrays. A build whose buffers all
// have the capacity it needs allocates nothing.
func buildTree(t *Tree, srcs []Source, opt BuildOptions, keys []Key, perm, scratch []int, sortedKeys []Key) error {
	if len(srcs) == 0 {
		return fmt.Errorf("treecode: no sources")
	}
	root, err := sourceBounds(srcs)
	if err != nil {
		return err
	}
	n := len(srcs)
	// Equal keys — coincident or sub-cell-coincident particles —
	// tie-break on the input index, so the permutation is the unique
	// (key, index) total order.
	for i := range srcs {
		keys[i] = MortonKey(srcs[i].X, srcs[i].Y, srcs[i].Z, root)
	}
	sortKeyPerm(perm, keys, scratch)

	t.Root, t.Bucket, t.Quadrupole = root, opt.Bucket, opt.Quadrupole
	t.Sources = growSources(t.Sources, n)
	for i, j := range perm {
		t.Sources[i] = srcs[j]
		sortedKeys[i] = keys[j]
	}
	b := builder{
		sources: t.Sources,
		keys:    sortedKeys,
		bucket:  opt.Bucket,
		quad:    opt.Quadrupole,
		nodes:   t.Nodes[:0],
		boxes:   t.Boxes[:0],
		q:       t.Quad[:0],
	}
	b.build(root, 0, n, 0)
	t.Nodes, t.Boxes, t.Quad = b.nodes, b.boxes, b.q
	return nil
}

func growKeys(s []Key, n int) []Key {
	if cap(s) < n {
		return make([]Key, n)
	}
	return s[:n]
}

func growSources(s []Source, n int) []Source {
	if cap(s) < n {
		return make([]Source, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// forceScratch is the storage of one force computation, grown to need
// and reused: the gathered sources, the build buffers, the tree (its
// sorted sources, nodes, boxes and quadrupoles), the walk arena and the
// task list. A Forcer keeps one across its calls; the parallel step's
// force phases share the gate's (see forceSlot). Its walk arena is not
// counted on treecode.list.arena.alloc/reuse: how many scratches exist
// depends on how ranks overlap in the gate, and the counters must
// repeat from run to run.
type forceScratch struct {
	srcs       []Source
	keys       []Key
	perm, tmp  []int
	sortedKeys []Key
	tree       Tree
	arena      *WalkArena
	tasks      []int32
}

// build builds the tree over srcs into the scratch's tree; it is valid
// until the scratch's next build.
func (sc *forceScratch) build(srcs []Source, opt BuildOptions) (*Tree, error) {
	n := len(srcs)
	sc.keys = growKeys(sc.keys, n)
	sc.perm = growInts(sc.perm, n)
	sc.tmp = growInts(sc.tmp, n)
	sc.sortedKeys = growKeys(sc.sortedKeys, n)
	if err := buildTree(&sc.tree, srcs, normalizeBuildOptions(opt), sc.keys, sc.perm, sc.tmp, sc.sortedKeys); err != nil {
		return nil, err
	}
	return &sc.tree, nil
}

// builder is a tree-construction arena: the recursion state plus the
// node, box and quadrupole arrays being grown in DFS preorder.
type builder struct {
	sources []Source
	keys    []Key
	bucket  int
	quad    bool
	nodes   []Node
	boxes   []Box
	q       []float64
}

// octants partitions the key-sorted run [lo,hi) at the given level into
// its eight octant runs by binary search on the key bits.
func (b *builder) octants(lo, hi, level int) (bounds [9]int) {
	shift := uint(3 * (KeyBits - 1 - level))
	start := lo
	bounds[0] = lo
	for oct := 0; oct < 8; oct++ {
		end := start + sort.Search(hi-start, func(i int) bool {
			return int((b.keys[start+i]>>shift)&7) > oct
		})
		bounds[oct+1] = end
		start = end
	}
	return bounds
}

// build recursively constructs the node covering sources [lo,hi) at the
// given level, its subtree following it in preorder, and sets its Skip
// rope once the subtree is complete.
func (b *builder) build(box Box, lo, hi, level int) {
	ni := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{First: int32(lo), Count: int32(hi - lo)})
	b.boxes = append(b.boxes, box)
	if b.quad {
		b.q = append(b.q, 0, 0, 0, 0, 0, 0)
	}
	if hi-lo <= b.bucket || level >= maxDepth {
		b.nodes[ni].Leaf = true
		b.computeLeafMoments(ni)
	} else {
		bounds := b.octants(lo, hi, level)
		for oct := 0; oct < 8; oct++ {
			if bounds[oct+1] > bounds[oct] {
				b.build(box.Octant(oct), bounds[oct], bounds[oct+1], level+1)
			}
		}
		b.computeInternalMoments(ni)
	}
	n := &b.nodes[ni]
	n.Skip = int32(len(b.nodes))
	size := 2 * box.Half
	n.Size2 = size * size
	if n.Leaf && n.Count <= 1 {
		n.Size2 = math.Inf(1)
	}
}

func (b *builder) computeLeafMoments(ni int32) {
	n := &b.nodes[ni]
	for i := n.First; i < n.First+n.Count; i++ {
		s := b.sources[i]
		n.M += s.M
		n.CX += s.M * s.X
		n.CY += s.M * s.Y
		n.CZ += s.M * s.Z
	}
	if n.M > 0 {
		n.CX /= n.M
		n.CY /= n.M
		n.CZ /= n.M
	}
	if b.quad {
		q := b.q[6*ni : 6*ni+6]
		for i := n.First; i < n.First+n.Count; i++ {
			s := b.sources[i]
			accumQuad(q, s.M, s.X-n.CX, s.Y-n.CY, s.Z-n.CZ)
		}
	}
}

// computeInternalMoments folds node ni's children — the ropes from
// ni+1 to the end of the arrays, which hold exactly its subtree — into
// its moments, in octant order.
func (b *builder) computeInternalMoments(ni int32) {
	n := &b.nodes[ni]
	end := int32(len(b.nodes))
	for ci := ni + 1; ci < end; ci = b.nodes[ci].Skip {
		c := &b.nodes[ci]
		n.M += c.M
		n.CX += c.M * c.CX
		n.CY += c.M * c.CY
		n.CZ += c.M * c.CZ
	}
	if n.M > 0 {
		n.CX /= n.M
		n.CY /= n.M
		n.CZ /= n.M
	}
	if b.quad {
		// Parallel-axis shift of children's quadrupoles plus their
		// monopole displacement terms.
		q := b.q[6*ni : 6*ni+6]
		for ci := ni + 1; ci < end; ci = b.nodes[ci].Skip {
			c := &b.nodes[ci]
			cq := b.q[6*ci : 6*ci+6]
			for k := range q {
				q[k] += cq[k]
			}
			accumQuad(q, c.M, c.CX-n.CX, c.CY-n.CY, c.CZ-n.CZ)
		}
	}
}

// accumQuad adds a point mass's traceless quadrupole contribution about
// the node centre to q (XX, YY, ZZ, XY, XZ, YZ).
func accumQuad(q []float64, m, dx, dy, dz float64) {
	r2 := dx*dx + dy*dy + dz*dz
	q[0] += m * (3*dx*dx - r2)
	q[1] += m * (3*dy*dy - r2)
	q[2] += m * (3*dz*dz - r2)
	q[3] += m * 3 * dx * dy
	q[4] += m * 3 * dx * dz
	q[5] += m * 3 * dy * dz
}

// Stats reports a force computation's work.
type Stats struct {
	PP uint64 // particle–particle interactions
	PC uint64 // particle–cell interactions
}

// Interactions returns the total interaction count.
func (st Stats) Interactions() uint64 { return st.PP + st.PC }

// Flops returns nominal flops under the treecode-paper convention.
func (st Stats) Flops() uint64 { return st.Interactions() * nbody.FlopsPerInteraction }

// ForceAt evaluates the softened acceleration at a point using the
// Barnes–Hut criterion: accept a cell when size/distance < theta. selfIdx
// excludes one local particle (pass -1 to include everything).
//
// ForceAt is the exact per-particle reference: a depth-first walk —
// one forward pass over the ropes — that the dual-tree walk's error is
// measured against and that direct per-point evaluations (vortex's
// Biot–Savart sums) call. It allocates nothing.
func (t *Tree) ForceAt(x, y, z float64, selfIdx int, theta, eps float64, st *Stats) (ax, ay, az float64) {
	eps2 := softening2(eps)
	th2 := theta * theta
	for i := int32(0); i < int32(len(t.Nodes)); {
		n := &t.Nodes[i]
		if n.M == 0 {
			i = n.Skip
			continue
		}
		dx := n.CX - x
		dy := n.CY - y
		dz := n.CZ - z
		d2 := dx*dx + dy*dy + dz*dz
		// The MAC applies to leaves too (a distant bucket is one monopole,
		// not Bucket particle interactions; Size2 is +Inf for a lone
		// source); the containment guard keeps the target's own leaf
		// open so self-exclusion stays exact.
		if n.Size2 < th2*d2 && !t.Boxes[i].Contains(x, y, z) {
			// Multipole acceptance: monopole (+ optional quadrupole).
			r2 := d2 + eps2
			rinv := 1 / math.Sqrt(r2)
			rinv2 := rinv * rinv
			mono := n.M * rinv * rinv2
			ax += mono * dx
			ay += mono * dy
			az += mono * dz
			if t.Quadrupole {
				// With d pointing target→COM and traceless Q:
				// a_q = −(Q·d)/R⁵ + (5/2)(d·Q·d)·d/R⁷.
				q := t.Quad[6*i : 6*i+6]
				qx := q[0]*dx + q[3]*dy + q[4]*dz
				qy := q[3]*dx + q[1]*dy + q[5]*dz
				qz := q[4]*dx + q[5]*dy + q[2]*dz
				rinv5 := rinv2 * rinv2 * rinv
				rqr := qx*dx + qy*dy + qz*dz
				c1 := -rinv5
				c2 := 2.5 * rqr * rinv5 * rinv2
				ax += c1*qx + c2*dx
				ay += c1*qy + c2*dy
				az += c1*qz + c2*dz
			}
			st.PC++
			i = n.Skip
			continue
		}
		if !n.Leaf {
			i++
			continue
		}
		for j := n.First; j < n.First+n.Count; j++ {
			s := &t.Sources[j]
			if s.Index == selfIdx && s.Index >= 0 {
				continue
			}
			px := s.X - x
			py := s.Y - y
			pz := s.Z - z
			r2 := px*px + py*py + pz*pz + eps2
			rinv := 1 / math.Sqrt(r2)
			f := s.M * rinv * rinv * rinv
			ax += f * px
			ay += f * py
			az += f * pz
			st.PP++
		}
		i = n.Skip
	}
	return ax, ay, az
}

// Forcer computes treecode forces for an nbody.System with the
// dual-tree walk; it implements nbody.Forcer. Its RMS error against
// direct summation is bounded by ForceAt's at the same theta.
type Forcer struct {
	Theta      float64
	Quadrupole bool
	// Workers is the host worker-pool width of the force loop; 0
	// follows par.Workers(). Forces are bit-identical at every width
	// (each task's tree walk is independent).
	Workers int
	// Tracer, when non-nil, records wall-clock spans for the build and
	// force phases of every call (obs.PidHost).
	Tracer *obs.Tracer
	// LastStats reports the most recent force computation's work.
	LastStats Stats
	// Total accumulates stats across every Forces call on this Forcer
	// (a multi-step Leapfrog integration sums here).
	Total Stats

	// arenas are the per-worker dual-walk arenas, grown to the pool
	// width on first use and reused across Forces calls so the
	// steady-state force path allocates nothing per walk; stats are the
	// per-worker interaction counts of the current call, beside them.
	arenas []*WalkArena
	stats  []Stats
	// sc holds the sources, the build buffers, the tree and the
	// dual-walk work list across calls. Every call builds its tree
	// afresh, serially, into that storage, so a warm build allocates
	// nothing. Its walk arena stays nil: the force loop walks on arenas.
	sc forceScratch
	// sel is the reusable target selection of masked force calls.
	sel Selection
}

// Forces implements nbody.Forcer: builds a tree over the system's
// current positions and fills its acceleration arrays.
func (f *Forcer) Forces(s *nbody.System) error { return f.ForcesActive(s, nil) }

// ForcesActive implements nbody.ActiveForcer: like Forces, but when
// active is non-nil only particles with active[i] true get their
// accelerations recomputed (the block-timestep integrator's active
// rung); the rest keep their previous values. The tree — the source
// side — always covers every particle at its current position.
func (f *Forcer) ForcesActive(s *nbody.System, active []bool) error {
	theta := f.Theta
	if theta <= 0 {
		theta = 0.7
	}
	sp := f.Tracer.Begin(obs.PidHost, 0, "treecode", "build")
	f.sc.srcs = AppendSources(f.sc.srcs[:0], s)
	t, err := f.sc.build(f.sc.srcs, BuildOptions{Quadrupole: f.Quadrupole})
	if err != nil {
		return err
	}
	sp.End(map[string]any{"sources": len(f.sc.srcs), "nodes": len(t.Nodes)})
	pool := par.New(f.Workers)
	sp = f.Tracer.Begin(obs.PidHost, 0, "treecode", "forces")
	st := f.dualForces(t, s, pool, theta, t.Select(active, &f.sel))
	sp.End(map[string]any{"pp": st.PP, "pc": st.PC})
	f.LastStats = st
	f.Total.PP += st.PP
	f.Total.PC += st.PC
	s.Interactions += st.Interactions()
	return nil
}

// dualForces runs the dual-tree engine: the work list is the tree's
// maximal ≤DualTaskSize-particle subtrees, each refined independently
// against the whole tree. Tasks partition the particles, so
// acceleration writes are disjoint, and each worker counts into its
// own Stats, summed after the loop: integer sums commute, so results
// and stats are bit-identical at any worker width.
func (f *Forcer) dualForces(t *Tree, s *nbody.System, pool *par.Pool, theta float64, sel *Selection) Stats {
	// Grow the per-worker arena set to the pool width; arenas that
	// survive from a previous Forces call are warm (their buffers keep
	// capacity), which is what makes the steady-state path alloc-free.
	width := pool.Width()
	if reused := min(len(f.arenas), width); reused > 0 {
		listArenaReuse.Add(uint64(reused))
	}
	for len(f.arenas) < width {
		f.arenas = append(f.arenas, NewWalkArena())
	}
	if len(f.stats) < width {
		f.stats = make([]Stats, width)
	}
	clear(f.stats)
	tasks := t.AppendGroups(f.sc.tasks[:0], DualTaskSize)
	f.sc.tasks = tasks
	pool.ForChunksWorker(len(tasks), 1, func(w, _, lo, hi int) {
		ar := f.arenas[w]
		var cst Stats
		for li := lo; li < hi; li++ {
			n := &t.Nodes[tasks[li]]
			if sel.count(n.First, n.First+n.Count) == 0 {
				continue
			}
			t.DualForceWalk(tasks[li], theta, s.Eps, sel, ar, &cst)
			for k := 0; k < ar.NumTargets(); k++ {
				i, ax, ay, az := ar.Target(k)
				s.AX[i] = s.G * ax
				s.AY[i] = s.G * ay
				s.AZ[i] = s.G * az
			}
		}
		f.stats[w].PP += cst.PP
		f.stats[w].PC += cst.PC
	})
	var st Stats
	for w, ar := range f.arenas[:width] {
		ar.FlushTelemetry()
		st.PP += f.stats[w].PP
		st.PC += f.stats[w].PC
	}
	return st
}

// SourcesFromSystem converts a system's particles to sources.
func SourcesFromSystem(s *nbody.System) []Source {
	return AppendSources(make([]Source, 0, s.N()), s)
}

// AppendSources appends a system's particles to dst and returns it —
// the reusable-buffer form of SourcesFromSystem a Forcer's calls feed
// on (dst[:0] of last call's buffer: no allocation).
func AppendSources(dst []Source, s *nbody.System) []Source {
	for i := 0; i < s.N(); i++ {
		dst = append(dst, Source{X: s.X[i], Y: s.Y[i], Z: s.Z[i], M: s.M[i], Index: i})
	}
	return dst
}

// CheckInvariants verifies structural and physical invariants: the
// node, box and quadrupole arrays run parallel and the root's box is
// the tree's; the ropes tile every subtree (a leaf's Skip is the next
// node, an internal node's children chain from its successor to its
// Skip) and each child's box is its parent's octant, in increasing
// octant order; Size2 matches the box; every source lies in exactly
// one leaf, inside its box; and node masses and counts equal their
// subtree sums. Property tests drive this over random systems.
func (t *Tree) CheckInvariants() error {
	nn := int32(len(t.Nodes))
	if nn == 0 {
		return fmt.Errorf("treecode: empty tree")
	}
	if len(t.Boxes) != len(t.Nodes) {
		return fmt.Errorf("%d boxes for %d nodes", len(t.Boxes), nn)
	}
	wantQ := 0
	if t.Quadrupole {
		wantQ = 6 * len(t.Nodes)
	}
	if len(t.Quad) != wantQ {
		return fmt.Errorf("%d quadrupole terms for %d nodes, want %d", len(t.Quad), nn, wantQ)
	}
	if t.Boxes[0] != t.Root {
		return fmt.Errorf("root node box %+v, want %+v", t.Boxes[0], t.Root)
	}
	if s := t.Nodes[0].Skip; s != nn {
		return fmt.Errorf("root skip %d, want %d", s, nn)
	}
	seen := make([]int, len(t.Sources))
	var totalM float64
	for _, s := range t.Sources {
		totalM += s.M
	}
	var walk func(ni int32) (float64, int32, error)
	walk = func(ni int32) (float64, int32, error) {
		n := &t.Nodes[ni]
		box := t.Boxes[ni]
		size := 2 * box.Half
		want := size * size
		if n.Leaf && n.Count <= 1 {
			want = math.Inf(1)
		}
		if n.Size2 != want {
			return 0, 0, fmt.Errorf("node %d: size2 %g, want %g", ni, n.Size2, want)
		}
		if n.Leaf {
			if n.Skip != ni+1 {
				return 0, 0, fmt.Errorf("leaf %d: skip %d, want %d", ni, n.Skip, ni+1)
			}
			var m float64
			for i := n.First; i < n.First+n.Count; i++ {
				seen[i]++
				s := t.Sources[i]
				m += s.M
				// Quantization can park a boundary particle in the
				// neighbouring cell at depth; verify against the leaf
				// box with tolerance.
				if box.MinDist(s.X, s.Y, s.Z) > 1e-9*t.Root.Half {
					return 0, 0, fmt.Errorf("source %d outside its leaf box", i)
				}
			}
			if math.Abs(m-n.M) > 1e-9*(1+math.Abs(m)) {
				return 0, 0, fmt.Errorf("leaf mass %g != sum %g", n.M, m)
			}
			return m, n.Count, nil
		}
		var m float64
		var cnt int32
		oct := 0
		for ci := ni + 1; ci < n.Skip; ci = t.Nodes[ci].Skip {
			if s := t.Nodes[ci].Skip; s <= ci || s > n.Skip {
				return 0, 0, fmt.Errorf("node %d: child %d skip %d leaves the range (%d, %d]", ni, ci, s, ci, n.Skip)
			}
			for oct < 8 && t.Boxes[ci] != box.Octant(oct) {
				oct++
			}
			if oct == 8 {
				return 0, 0, fmt.Errorf("node %d: child %d box is not a later octant of its parent's", ni, ci)
			}
			oct++
			cm, cc, err := walk(ci)
			if err != nil {
				return 0, 0, err
			}
			m += cm
			cnt += cc
		}
		if math.Abs(m-n.M) > 1e-9*(1+math.Abs(m)) {
			return 0, 0, fmt.Errorf("internal mass %g != children sum %g", n.M, m)
		}
		if cnt != n.Count {
			return 0, 0, fmt.Errorf("internal count %d != children sum %d", n.Count, cnt)
		}
		return m, cnt, nil
	}
	m, cnt, err := walk(0)
	if err != nil {
		return err
	}
	if int(cnt) != len(t.Sources) {
		return fmt.Errorf("tree covers %d of %d sources", cnt, len(t.Sources))
	}
	if math.Abs(m-totalM) > 1e-9*(1+math.Abs(totalM)) {
		return fmt.Errorf("tree mass %g != total %g", m, totalM)
	}
	for i, c := range seen {
		if c != 1 {
			return fmt.Errorf("source %d appears in %d leaves", i, c)
		}
	}
	return nil
}
