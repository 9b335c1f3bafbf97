package treecode

import (
	"fmt"
	"math"
	"sort"
	"sync"

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

// Node is one tree cell.
type Node struct {
	Key      Key
	Box      Box
	Children [8]int32 // node indices; -1 if absent
	Leaf     bool
	// First/Count index the tree's key-ordered source permutation for
	// leaf cells.
	First, Count int
	// Monopole moment.
	M          float64
	CX, CY, CZ float64
	// Quadrupole moments (traceless Cartesian), used when the tree is
	// built with quadrupoles enabled.
	QXX, QYY, QZZ, QXY, QXZ, QYZ float64
}

// Tree is a bucketed oct-tree over a set of sources, its nodes in DFS
// preorder, each carrying its Morton key.
type Tree struct {
	Root    Box
	Nodes   []Node
	Sources []Source // key-sorted
	Bucket  int
	// Quadrupole enables second-order moments in cell interactions.
	Quadrupole bool
	// MaxDepth bounds subdivision (coincident particles share a leaf).
	MaxDepth int

	// walkOnce guards the lazily built rope-threaded walk index the
	// dual engine scans for sources (derived state; see buildWalkIndex).
	walkOnce sync.Once
	walk     []walkNode
	walkB    []Box
	walkQ    []float64
}

// BuildOptions configure tree construction.
type BuildOptions struct {
	Bucket     int  // max particles per leaf (default 8)
	MaxDepth   int  // default 20 (one less than key resolution)
	Quadrupole bool // compute quadrupole moments
}

// Build constructs a tree over the sources.
func Build(sources []Source, opt BuildOptions) (*Tree, error) {
	n := len(sources)
	t := &Tree{}
	if err := buildTree(t, sources, normalizeBuildOptions(opt), make([]Key, n), make([]int, n), make([]int, n), make([]Key, n)); err != nil {
		return nil, err
	}
	return t, nil
}

// normalizeBuildOptions applies the Bucket and MaxDepth defaults.
func normalizeBuildOptions(opt BuildOptions) BuildOptions {
	if opt.Bucket <= 0 {
		opt.Bucket = 8
	}
	if opt.MaxDepth <= 0 || opt.MaxDepth >= KeyBits {
		opt.MaxDepth = KeyBits - 1
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
// its Sources, Nodes and walk-index arrays; the walk index is rebuilt
// on first use. A build whose buffers all have the capacity it needs
// allocates nothing.
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

	nodes := t.Nodes[:0]
	*t = Tree{
		Root:       root,
		Sources:    growSources(t.Sources, n),
		Bucket:     opt.Bucket,
		Quadrupole: opt.Quadrupole,
		MaxDepth:   opt.MaxDepth,
		walk:       t.walk,
		walkB:      t.walkB,
		walkQ:      t.walkQ,
	}
	for i, j := range perm {
		t.Sources[i] = srcs[j]
		sortedKeys[i] = keys[j]
	}
	b := builder{
		sources:  t.Sources,
		keys:     sortedKeys,
		bucket:   opt.Bucket,
		maxDepth: opt.MaxDepth,
		quad:     opt.Quadrupole,
		nodes:    nodes,
	}
	b.build(RootKey, root, 0, n, 0)
	t.Nodes = b.nodes
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
// sorted sources, node arena and walk-index arrays), the walk arena
// and the task list. A Forcer keeps one across its calls; the parallel
// step's force phases share the gate's (see forceSlot). Its walk arena
// is not counted on treecode.list.arena.alloc/reuse: how many
// scratches exist depends on how ranks overlap in the gate, and the
// counters must repeat from run to run.
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
// node slice being grown in DFS preorder.
type builder struct {
	sources  []Source
	keys     []Key
	bucket   int
	maxDepth int
	quad     bool
	nodes    []Node
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
// given level and returns its node index.
func (b *builder) build(key Key, box Box, lo, hi, level int) int32 {
	ni := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Key: key, Box: box, First: lo, Count: hi - lo})
	for i := range b.nodes[ni].Children {
		b.nodes[ni].Children[i] = -1
	}

	if hi-lo <= b.bucket || level >= b.maxDepth {
		b.nodes[ni].Leaf = true
		b.computeLeafMoments(ni)
		return ni
	}
	bounds := b.octants(lo, hi, level)
	for oct := 0; oct < 8; oct++ {
		if bounds[oct+1] > bounds[oct] {
			ci := b.build(key.Child(oct), box.Octant(oct), bounds[oct], bounds[oct+1], level+1)
			b.nodes[ni].Children[oct] = ci
		}
	}
	b.computeInternalMoments(ni)
	return ni
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
		for i := n.First; i < n.First+n.Count; i++ {
			s := b.sources[i]
			accumQuad(n, s.M, s.X-n.CX, s.Y-n.CY, s.Z-n.CZ)
		}
	}
}

func (b *builder) computeInternalMoments(ni int32) {
	n := &b.nodes[ni]
	for _, ci := range n.Children {
		if ci < 0 {
			continue
		}
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
		for _, ci := range n.Children {
			if ci < 0 {
				continue
			}
			c := &b.nodes[ci]
			n.QXX += c.QXX
			n.QYY += c.QYY
			n.QZZ += c.QZZ
			n.QXY += c.QXY
			n.QXZ += c.QXZ
			n.QYZ += c.QYZ
			accumQuad(n, c.M, c.CX-n.CX, c.CY-n.CY, c.CZ-n.CZ)
		}
	}
}

// accumQuad adds a point mass's traceless quadrupole contribution about
// the node centre.
func accumQuad(n *Node, m, dx, dy, dz float64) {
	r2 := dx*dx + dy*dy + dz*dz
	n.QXX += m * (3*dx*dx - r2)
	n.QYY += m * (3*dy*dy - r2)
	n.QZZ += m * (3*dz*dz - r2)
	n.QXY += m * 3 * dx * dy
	n.QXZ += m * 3 * dx * dz
	n.QYZ += m * 3 * dy * dz
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
// ForceAt is the exact per-particle reference: a closure-recursive
// depth-first walk that the dual-tree walk's error is measured against
// and that direct per-point evaluations (vortex's Biot–Savart sums)
// call. It allocates nothing.
func (t *Tree) ForceAt(x, y, z float64, selfIdx int, theta, eps float64, st *Stats) (ax, ay, az float64) {
	eps2 := softening2(eps)
	var walk func(ni int32)
	walk = func(ni int32) {
		n := &t.Nodes[ni]
		if n.M == 0 {
			return
		}
		dx := n.CX - x
		dy := n.CY - y
		dz := n.CZ - z
		d2 := dx*dx + dy*dy + dz*dz
		size := 2 * n.Box.Half
		// The MAC applies to leaves too (a distant bucket is one monopole,
		// not Bucket particle interactions); the containment guard keeps
		// the target's own leaf open so self-exclusion stays exact.
		if (!n.Leaf || n.Count > 1) && size*size < theta*theta*d2 && !n.Box.Contains(x, y, z) {
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
				qx := n.QXX*dx + n.QXY*dy + n.QXZ*dz
				qy := n.QXY*dx + n.QYY*dy + n.QYZ*dz
				qz := n.QXZ*dx + n.QYZ*dy + n.QZZ*dz
				rinv5 := rinv2 * rinv2 * rinv
				rqr := qx*dx + qy*dy + qz*dz
				c1 := -rinv5
				c2 := 2.5 * rqr * rinv5 * rinv2
				ax += c1*qx + c2*dx
				ay += c1*qy + c2*dy
				az += c1*qz + c2*dz
			}
			st.PC++
			return
		}
		if n.Leaf {
			for i := n.First; i < n.First+n.Count; i++ {
				s := t.Sources[i]
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
			return
		}
		for _, ci := range n.Children {
			if ci >= 0 {
				walk(ci)
			}
		}
	}
	walk(0)
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
	// steady-state force path allocates nothing per walk.
	arenas []*WalkArena
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
// acceleration writes are disjoint and — with per-chunk sharded
// counters — results and stats are bit-identical at any worker width.
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
	tasks := t.AppendGroups(f.sc.tasks[:0], DualTaskSize)
	f.sc.tasks = tasks
	nl := len(tasks)
	nc := par.NumChunks(nl, 1)
	pp := obs.NewShardedCounter(nc)
	pc := obs.NewShardedCounter(nc)
	pool.ForChunksWorker(nl, 1, func(w, c, lo, hi int) {
		ar := f.arenas[w]
		var cst Stats
		for li := lo; li < hi; li++ {
			n := &t.Nodes[tasks[li]]
			if sel.count(int32(n.First), int32(n.First+n.Count)) == 0 {
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
		pp.Add(c, cst.PP)
		pc.Add(c, cst.PC)
	})
	for _, ar := range f.arenas[:width] {
		ar.FlushTelemetry()
	}
	return Stats{PP: pp.Value(), PC: pc.Value()}
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

// CheckInvariants verifies structural and physical invariants: every
// source in exactly one leaf, node masses equal their subtree sums,
// children lie inside parents, the root carries RootKey and each
// child's key is its parent's key extended by its octant. Property
// tests drive this over random systems.
func (t *Tree) CheckInvariants() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("treecode: empty tree")
	}
	seen := make([]int, len(t.Sources))
	var totalM float64
	for _, s := range t.Sources {
		totalM += s.M
	}
	if k := t.Nodes[0].Key; k != RootKey {
		return fmt.Errorf("root key %x, want %x", k, RootKey)
	}
	var walk func(ni int32) (float64, int, error)
	walk = func(ni int32) (float64, int, error) {
		n := &t.Nodes[ni]
		if n.Leaf {
			var m float64
			for i := n.First; i < n.First+n.Count; i++ {
				seen[i]++
				s := t.Sources[i]
				m += s.M
				// Quantization can park a boundary particle in the
				// neighbouring cell at depth; verify against the root
				// instead of the leaf box for robustness, and the leaf
				// box with tolerance.
				if n.Box.MinDist(s.X, s.Y, s.Z) > 1e-9*t.Root.Half {
					return 0, 0, fmt.Errorf("source %d outside its leaf box", i)
				}
			}
			if math.Abs(m-n.M) > 1e-9*(1+math.Abs(m)) {
				return 0, 0, fmt.Errorf("leaf mass %g != sum %g", n.M, m)
			}
			return m, n.Count, nil
		}
		var m float64
		var cnt int
		for oct, ci := range n.Children {
			if ci < 0 {
				continue
			}
			c := &t.Nodes[ci]
			if c.Key != n.Key.Child(oct) {
				return 0, 0, fmt.Errorf("node %d: child %d key %x, want %x", ni, oct, c.Key, n.Key.Child(oct))
			}
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
	if cnt != len(t.Sources) {
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
