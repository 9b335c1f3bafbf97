package treecode

// This file is the incremental tree maintainer: a persistent TreeCache
// that keeps the Morton keys, the sorted permutation and the node arena
// alive across timesteps, so a multi-step integration pays for tree
// *maintenance* instead of tree *construction*. Production treecodes on
// real Beowulfs amortize exactly this cost (Dubinski's GOTPM and the
// Warren–Salmon production codes); the paper's throughput argument is
// about sustained Mflops on fixed hardware, and rebuilding an identical
// tree from scratch every leapfrog tick is the largest redundant slice
// of the host hot path.
//
// The contract is the repo's determinism culture, applied to a cache:
// after Step the tree is bit-identical — nodes, keys, moments, walk
// index, source order — to a fresh Build over the same positions, at
// every worker width. Three properties make that hold:
//
//  1. Build's sort is the (key, input-index) total order, so *any*
//     correct re-sort reproduces it exactly; the maintainer's adaptive
//     merge and its LSD-radix fallback both do.
//  2. The patch recursion emits nodes in Build's exact DFS preorder and
//     computes moments with the builder's own methods, so every float
//     accumulates in the same order with the same expression shapes.
//  3. The root box is recomputed with the same fold (sourceBounds), so
//     keys and node geometry derive from bit-identical inputs.
//
// The steady state allocates nothing: keys, permutations, scratch, the
// double-buffered node arena and the walk arrays (refreshed in place,
// or rebuilt into retained capacity) all reuse storage from previous
// steps.

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// ReuseStats counts the maintainer's work. TreeCache.Stats accumulates
// across the cache's lifetime; TreeCache.Last holds the most recent
// step's deltas.
type ReuseStats struct {
	Steps           uint64 // Step calls
	FullBuilds      uint64 // steps that fell back to a full build (adoption, n/options change)
	CleanSteps      uint64 // steps whose whole structure was reused (only moments moved)
	NodesReused     uint64 // nodes whose subtree structure survived from the previous step
	SubtreesRebuilt uint64 // dirty subtrees rebuilt from their key runs
	KeysMoved       uint64 // permutation slots that changed in the re-sort
}

func (s *ReuseStats) add(d ReuseStats) {
	s.Steps += d.Steps
	s.FullBuilds += d.FullBuilds
	s.CleanSteps += d.CleanSteps
	s.NodesReused += d.NodesReused
	s.SubtreesRebuilt += d.SubtreesRebuilt
	s.KeysMoved += d.KeysMoved
}

// Reuse telemetry, on the package registry next to the list-engine
// counters (gathered by ListTelemetry, flushed once per Step).
var (
	reuseSteps      = listReg.Counter("treecode.reuse.steps", "")
	reuseFullBuilds = listReg.Counter("treecode.reuse.full_builds", "")
	// Steps that reused the whole structure.
	reuseCleanSteps = listReg.Counter("treecode.reuse.clean_steps", "")
	reuseNodesKept  = listReg.Counter("treecode.reuse.nodes_reused", "")
	reuseRebuilt    = listReg.Counter("treecode.reuse.subtrees_rebuilt", "")
	// Permutation slots moved by the maintainer's re-sort.
	reuseKeysMoved = listReg.Counter("treecode.reuse.keys_moved", "")
)

// TreeCache is a persistent tree maintainer. Call Step once per
// timestep with the current sources (input order defines the tie-break
// identity, so callers pass the same particle order every step — the
// Forcer's AppendSources does); the returned tree is bit-identical to
// Build(srcs, opt) and valid until the next Step. A TreeCache is not
// safe for concurrent use.
type TreeCache struct {
	Stats ReuseStats // lifetime totals
	Last  ReuseStats // most recent step's deltas

	opt  BuildOptions // normalized options of the maintained tree
	pool par.Pool
	tree *Tree

	keys       []Key  // Morton keys by input index
	perm       []int  // input indices in (key, index) order
	permOld    []int  // previous step's perm, for the moved count
	scratch    []int  // backbone / radix double buffer
	movers     []int  // out-of-order indices of the adaptive re-sort
	sortedKeys []Key  // keys[perm[i]] — what the builder searches
	spare      []Node // node arena double buffer (swaps with tree.Nodes)
}

// NewTreeCache returns an empty maintainer; the first Step adopts a
// full build.
func NewTreeCache() *TreeCache { return &TreeCache{} }

// Tree returns the maintained tree (nil before the first Step).
func (c *TreeCache) Tree() *Tree { return c.tree }

// normalizeBuildOptions applies Build's defaulting so the cache can
// compare option identities.
func normalizeBuildOptions(opt BuildOptions) BuildOptions {
	if opt.Bucket <= 0 {
		opt.Bucket = 8
	}
	if opt.MaxDepth <= 0 || opt.MaxDepth >= KeyBits {
		opt.MaxDepth = KeyBits - 1
	}
	return opt
}

// sameShape reports whether the maintained tree can be patched rather
// than rebuilt: same source count and same structural options. Workers
// is deliberately excluded — the tree is bit-identical at every width,
// so a width change never invalidates the cache.
func (c *TreeCache) sameShape(n int, opt BuildOptions) bool {
	return c.tree != nil && len(c.perm) == n &&
		c.opt.Bucket == opt.Bucket && c.opt.MaxDepth == opt.MaxDepth &&
		c.opt.Quadrupole == opt.Quadrupole
}

// Step refreshes the maintained tree over the current source positions
// and returns it. The result is bit-identical to Build(srcs, opt); the
// steady state (unchanged n and options) allocates nothing.
func (c *TreeCache) Step(srcs []Source, opt BuildOptions) (*Tree, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("treecode: no sources")
	}
	opt = normalizeBuildOptions(opt)
	w := opt.Workers
	if w < 0 {
		w = 0
	}
	c.pool = par.Pool{W: w}
	if !c.sameShape(len(srcs), opt) {
		t, err := c.fullBuild(srcs, opt)
		if err != nil {
			return nil, err
		}
		c.Last = ReuseStats{Steps: 1, FullBuilds: 1}
		c.flush()
		return t, nil
	}
	c.opt.Workers = opt.Workers

	t := c.tree
	root, err := sourceBounds(srcs)
	if err != nil {
		return nil, err
	}
	t.Root = root

	// (a) Recompute keys in place and re-sort with the bounded adaptive
	// merge. The root box moves every step (the extremal particles
	// drift), so every key changes — what survives is the *order*, which
	// is nearly stable because particles barely move between ticks.
	keys := c.keys
	if c.pool.Width() == 1 {
		// Inline at width 1: the pool closure would heap-escape (it is
		// passed toward goroutine spawns even when none run), and the
		// serial path is the one the zero-alloc pin covers.
		for i := range srcs {
			keys[i] = MortonKey(srcs[i].X, srcs[i].Y, srcs[i].Z, root)
		}
	} else {
		c.pool.For(len(srcs), keyGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keys[i] = MortonKey(srcs[i].X, srcs[i].Y, srcs[i].Z, root)
			}
		})
	}
	copy(c.permOld, c.perm)
	c.resortPerm()
	moved := 0
	for i, j := range c.perm {
		if j != c.permOld[i] {
			moved++
		}
		t.Sources[i] = srcs[j]
		c.sortedKeys[i] = keys[j]
	}

	// (b) Patch: re-derive the structure against the old node array,
	// reusing clean subtrees' shape and rebuilding dirty ones, while
	// (c) refreshing every moment in place via the builder's own moment
	// methods. The patch emits into the spare arena (double buffer).
	p := patcher{
		b: builder{
			sources:  t.Sources,
			keys:     c.sortedKeys,
			bucket:   c.opt.Bucket,
			maxDepth: c.opt.MaxDepth,
			quad:     c.opt.Quadrupole,
			nodes:    c.spare[:0],
		},
		old: t.Nodes,
	}
	_, clean := p.patch(0, RootKey, root, 0, len(srcs), 0)
	c.spare = t.Nodes[:0]
	t.Nodes = p.b.nodes

	if t.walk != nil {
		// The lazily built walk index has already fired its sync.Once;
		// refresh it explicitly. A clean structure refreshes in place
		// (same preorder, same ropes); otherwise rebuild into the
		// retained arrays.
		if !clean || !refreshWalkIndex(t) {
			buildWalkIndex(t)
		}
	}

	c.Last = ReuseStats{
		Steps:           1,
		NodesReused:     p.reused,
		SubtreesRebuilt: p.rebuilt,
		KeysMoved:       uint64(moved),
	}
	if clean {
		c.Last.CleanSteps = 1
	}
	c.flush()
	return t, nil
}

// flush folds Last into the lifetime totals and the obs counters.
func (c *TreeCache) flush() {
	c.Stats.add(c.Last)
	reuseSteps.Add(c.Last.Steps)
	reuseFullBuilds.Add(c.Last.FullBuilds)
	reuseCleanSteps.Add(c.Last.CleanSteps)
	reuseNodesKept.Add(c.Last.NodesReused)
	reuseRebuilt.Add(c.Last.SubtreesRebuilt)
	reuseKeysMoved.Add(c.Last.KeysMoved)
}

// fullBuild constructs the tree from scratch through Build's pipeline
// (buildTree), into cache-owned buffers that the next Steps patch from.
func (c *TreeCache) fullBuild(srcs []Source, opt BuildOptions) (*Tree, error) {
	n := len(srcs)
	c.keys = growKeys(c.keys, n)
	c.perm = growInts(c.perm, n)
	c.permOld = growInts(c.permOld, n)
	c.scratch = growInts(c.scratch, n)
	c.sortedKeys = growKeys(c.sortedKeys, n)
	if cap(c.movers) < maxMovers(n)+1 {
		c.movers = make([]int, 0, maxMovers(n)+1)
	}
	t := &Tree{}
	if err := buildTree(t, srcs, opt, &c.pool, c.keys, c.perm, c.scratch, c.sortedKeys); err != nil {
		// The buffers no longer match the old tree: force a full
		// build next step.
		c.tree = nil
		return nil, err
	}

	// Seed the double buffer with headroom so early growth steps don't
	// show up as steady-state allocations.
	if cap(c.spare) < 2*len(t.Nodes) {
		c.spare = make([]Node, 0, 2*len(t.Nodes))
	}
	c.tree = t
	c.opt = opt
	return t, nil
}

// maxMovers bounds the adaptive merge: beyond this many out-of-order
// elements the LSD radix fallback wins.
func maxMovers(n int) int {
	m := n / 32
	if m < 64 {
		m = 64
	}
	return m
}

// keyLess is the (key, input-index) total order of Build's sort.
func keyLess(keys []Key, a, b int) bool {
	if keys[a] != keys[b] {
		return keys[a] < keys[b]
	}
	return a < b
}

// resortPerm re-sorts c.perm under the new keys, exploiting the mostly
// sorted order: an O(n) sorted check, then a greedy backbone scan that
// extracts the out-of-order "movers"; few movers are insertion-sorted
// and merged back in one pass, many movers fall back to an LSD radix
// sort. Every path lands in the same (key, index) total order.
func (c *TreeCache) resortPerm() {
	keys, perm := c.keys, c.perm
	n := len(perm)
	sorted := true
	for i := 1; i < n; i++ {
		if keyLess(keys, perm[i], perm[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}

	// Greedy backbone: keep elements that extend the sorted prefix,
	// divert the rest to movers. The backbone is sorted by
	// construction; merging it with the sorted movers yields the total
	// order no matter how the split fell out.
	limit := maxMovers(n)
	backbone := c.scratch[:0]
	movers := c.movers[:0]
	last := perm[0]
	backbone = append(backbone, last)
	radix := false
	for i := 1; i < n; i++ {
		j := perm[i]
		if keyLess(keys, j, last) {
			if len(movers) == limit {
				radix = true
				break
			}
			movers = append(movers, j)
		} else {
			backbone = append(backbone, j)
			last = j
		}
	}
	c.movers = movers
	if radix {
		sortKeyPerm(c.perm, c.keys, c.scratch)
		return
	}

	// Insertion sort the movers (bounded by maxMovers, and typically a
	// handful), then merge. Backbone and movers are disjoint index
	// sets, so keyLess never compares an element with itself and the
	// order is strict.
	for i := 1; i < len(movers); i++ {
		v := movers[i]
		k := i - 1
		for k >= 0 && keyLess(keys, v, movers[k]) {
			movers[k+1] = movers[k]
			k--
		}
		movers[k+1] = v
	}
	bi, mi := 0, 0
	for o := 0; o < n; o++ {
		if mi >= len(movers) || (bi < len(backbone) && keyLess(keys, backbone[bi], movers[mi])) {
			perm[o] = backbone[bi]
			bi++
		} else {
			perm[o] = movers[mi]
			mi++
		}
	}
}

// patcher re-derives the tree structure against the previous step's
// node array. It shares the builder so rebuilt subtrees and refreshed
// moments go through Build's exact code paths.
type patcher struct {
	b       builder
	old     []Node
	reused  uint64
	rebuilt uint64
}

// patch emits the node covering sources [lo,hi) in DFS preorder,
// reusing the shape of the old subtree rooted at oldNi where the key
// runs still agree, and returns the new node index plus a clean flag:
// clean means the subtree's emitted shape (node count and topology) is
// identical to the old subtree's, so its node indices — and therefore
// the walk ropes over it — are unchanged.
func (p *patcher) patch(oldNi int32, key Key, box Box, lo, hi, level int) (int32, bool) {
	isLeaf := hi-lo <= p.b.bucket || level >= p.b.maxDepth
	if oldNi < 0 || p.old[oldNi].Leaf != isLeaf {
		// Dirty octant: the leaf/internal decision flipped (or the old
		// tree had nothing here) — rebuild the subtree from its key run
		// with the builder's own recursion.
		p.rebuilt++
		return p.b.build(key, box, lo, hi, level), false
	}

	ni := int32(len(p.b.nodes))
	p.b.nodes = append(p.b.nodes, Node{Key: key, Box: box, First: lo, Count: hi - lo})
	for i := range p.b.nodes[ni].Children {
		p.b.nodes[ni].Children[i] = -1
	}
	p.reused++
	if isLeaf {
		p.b.nodes[ni].Leaf = true
		p.b.computeLeafMoments(ni)
		return ni, true
	}

	bounds := p.octantsGuess(oldNi, lo, hi, level)
	clean := true
	for oct := 0; oct < 8; oct++ {
		oldChild := p.old[oldNi].Children[oct]
		if bounds[oct+1] > bounds[oct] {
			ci, cClean := p.patch(oldChild, key.Child(oct), box.Octant(oct), bounds[oct], bounds[oct+1], level+1)
			p.b.nodes[ni].Children[oct] = ci
			clean = clean && cClean
		} else if oldChild >= 0 {
			clean = false
		}
	}
	p.b.computeInternalMoments(ni)
	return ni, clean
}

// octantsGuess partitions the key run [lo,hi) into octant runs like
// builder.octants, but verifies the previous step's child counts as
// O(1) boundary guesses first — in the common case (few movers) every
// boundary verifies and the partition costs sixteen key probes instead
// of eight binary searches.
func (p *patcher) octantsGuess(oldNi int32, lo, hi, level int) (bounds [9]int) {
	old := &p.old[oldNi]
	keys := p.b.keys
	shift := uint(3 * (KeyBits - 1 - level))
	bounds[0] = lo
	start := lo
	for oct := 0; oct < 8; oct++ {
		g := start
		if ci := old.Children[oct]; ci >= 0 {
			g += p.old[ci].Count
		}
		end := -1
		if g >= start && g <= hi &&
			(g == start || int((keys[g-1]>>shift)&7) <= oct) &&
			(g == hi || int((keys[g]>>shift)&7) > oct) {
			end = g
		} else {
			// Guess failed (keys crossed this boundary): binary search
			// the true boundary.
			blo, bn := 0, hi-start
			for blo < bn {
				mid := int(uint(blo+bn) >> 1)
				if int((keys[start+mid]>>shift)&7) > oct {
					bn = mid
				} else {
					blo = mid + 1
				}
			}
			end = start + blo
		}
		bounds[oct+1] = end
		start = end
	}
	return bounds
}

// refreshWalkIndex updates the walk index in place after a clean patch:
// same preorder, same ropes, so only the per-node payload (moments,
// geometry, leaf runs) needs rewriting. Returns false — caller falls
// back to a full rebuild — when the previous index elided an empty
// (M == 0) subtree or an empty node appeared, since then walk position
// and node index no longer coincide.
func refreshWalkIndex(t *Tree) bool {
	if len(t.walk) != len(t.Nodes) {
		return false
	}
	if t.Quadrupole && len(t.walkQ) != 6*len(t.Nodes) {
		return false
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.M == 0 {
			return false
		}
		size := 2 * n.Box.Half
		size2 := size * size
		if n.Leaf && n.Count <= 1 {
			size2 = math.Inf(1)
		}
		w := &t.walk[i]
		w.cx, w.cy, w.cz, w.m = n.CX, n.CY, n.CZ, n.M
		w.size2 = size2
		w.first, w.count = int32(n.First), int32(n.Count)
		t.walkB[i] = n.Box
		if t.Quadrupole {
			q := t.walkQ[6*i : 6*i+6]
			q[0], q[1], q[2] = n.QXX, n.QYY, n.QZZ
			q[3], q[4], q[5] = n.QXY, n.QXZ, n.QYZ
		}
	}
	return true
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
