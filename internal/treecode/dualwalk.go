package treecode

import (
	"math"
	"slices"
)

// The dual-tree engine walks the tree against itself: a recursive
// descent over *target* subtrees refines one inherited list of
// undecided *source* nodes, so a single MAC decision made high up —
// "this source cell is far enough from this whole target box" — is
// inherited by every target group below it instead of being re-tested
// once per particle. Sources are scanned along the tree's Skip ropes;
// accepted cells, opened leaf sources and the per-group target outputs
// all live in the per-worker zero-alloc WalkArena.
//
// Acceptance is conservative: the per-particle MAC evaluated at the
// worst-case (closest) point of the target box, plus box disjointness
// in place of the point walk's containment guard. Both tests quantify
// over every actual target, so a cell accepted for a box passes the
// per-particle MAC for each target in it individually, and the engine
// only ever opens more cells than the recursive walk — its error is
// bounded by the recursive walk's. Inheritance is sound by
// monotonicity: a cell accepted against an ancestor's box passes the
// same test against every descendant box it contains (dmin² only grows
// as the box shrinks, and disjointness is inherited). The engine is
// RMS-bounded, not bit-identical (accumulation order differs).

// Selection restricts a force computation to a subset of target
// particles — the block-timestep integrator's active rung, or a LET
// force tree's real targets. A nil *Selection means every real target.
// The prefix counts over the tree's key-sorted source order let
// traversals prune whole subtrees with no selected target in O(1).
type Selection struct {
	active []bool // nil: every real target
	pfx    []int32
}

// Select fills sel with the selection of the tree's sources under a
// mask indexed by particle index, reusing sel's prefix buffer, and
// returns it (nil active returns nil: all real targets selected).
func (t *Tree) Select(active []bool, sel *Selection) *Selection {
	if active == nil {
		return nil
	}
	return t.fillSelection(active, sel)
}

// selectReal fills sel with every real target (Index >= 0) of the tree,
// reusing sel's prefix buffer, and returns it. On a tree that holds
// imported pseudo-particles it prunes the subtrees that hold only
// those, which a nil selection walks down to their groups.
func (t *Tree) selectReal(sel *Selection) *Selection {
	return t.fillSelection(nil, sel)
}

// fillSelection fills sel with the real targets active selects, every
// one for nil active.
func (t *Tree) fillSelection(active []bool, sel *Selection) *Selection {
	pfx := append(sel.pfx[:0], 0)
	for i := range t.Sources {
		c := pfx[i]
		if s := &t.Sources[i]; s.Index >= 0 && (active == nil || active[s.Index]) {
			c++
		}
		pfx = append(pfx, c)
	}
	sel.active, sel.pfx = active, pfx
	return sel
}

// count returns the selected targets among sorted sources [lo, hi).
// A nil selection counts every source there, imported pseudo-particles
// (Index < 0) too: an upper bound that prunes only empty ranges, as
// real-target filtering happens per group.
func (sel *Selection) count(lo, hi int32) int32 {
	if sel == nil {
		return hi - lo
	}
	return sel.pfx[hi] - sel.pfx[lo]
}

// selected reports whether source s is an evaluated target.
func (sel *Selection) selected(s *Source) bool {
	if s.Index < 0 {
		return false
	}
	return sel == nil || sel.active == nil || sel.active[s.Index]
}

// DefaultGroupSize is the target-group granularity of the dual engine:
// a target subtree of at most this many particles stops splitting and
// evaluates one shared interaction list for all of them. Decoupled
// from the tree's leaf bucket — groups want to be coarser than the
// force-accuracy-driven bucket size. Coarser groups only *improve*
// accuracy (the conservative MAC opens more), at the cost of longer
// per-target lists; 64 is the throughput sweet spot measured on the
// default bucket-8 tree.
const DefaultGroupSize = 64

// DualTaskSize is the particle granularity of the dual engine's
// parallel work list: each task is a maximal subtree of at most this
// many particles, refined independently from the root's undecided
// list. Tasks partition the particles, so acceleration writes are
// disjoint and results are bit-identical at any worker width. Coarser
// tasks hoist more MAC decisions but parallelize worse; 1024 keeps
// ~n/1024 tasks, plenty for the host pool at production sizes.
const DualTaskSize = 1024

// dualState is the reusable traversal state of one dual walk,
// embedded in the WalkArena so the steady-state path allocates
// nothing. The undecided list u is a flat stack: each target level
// appends its refined list above its parent's and truncates on exit.
type dualState struct {
	t    *Tree
	sel  *Selection
	ar   *WalkArena
	th2  float64
	quad bool

	// u is the undecided-source stack, levels delimited by the target
	// recursion.
	u []int32

	// Current target frame: AABB (centre, half-extents) and whether the
	// frame is a group (resolves every source) or internal (may defer).
	tx, ty, tz, hx, hy, hz float64
	isGroup                bool

	// eval selects what a group does with its list: evaluate it
	// (evalTargets) or only count its interactions (countTargets).
	eval bool
}

// DualForceWalk computes softened accelerations for every selected
// real target under tree node ni with one dual traversal: the tree's
// nodes are refined as sources down the target subtree, cells accepted
// at internal levels are shared by every group below, and each group
// of at most DefaultGroupSize particles evaluates the accumulated list
// through the blocked kernels of evalTargets. Results land in the
// arena's target buffers (NumTargets / Target).
func (t *Tree) DualForceWalk(ni int32, theta, eps float64, sel *Selection, ar *WalkArena, st *Stats) {
	t.dualWalk(ni, theta, eps, sel, ar, st, true)
}

// dualWalk is DualForceWalk's body. With eval false every group counts
// its list instead of evaluating it: the traversal, the lists, Stats
// and the walk telemetry are the same, and no target rows are written.
// A zero-mass tree gives every selected target a zero row.
func (t *Tree) dualWalk(ni int32, theta, eps float64, sel *Selection, ar *WalkArena, st *Stats, eval bool) {
	ar.tIdx = ar.tIdx[:0]
	ar.tax, ar.tay, ar.taz = ar.tax[:0], ar.tay[:0], ar.taz[:0]
	ar.cx, ar.cy, ar.cz, ar.cm = ar.cx[:0], ar.cy[:0], ar.cz[:0], ar.cm[:0]
	ar.qxx, ar.qyy, ar.qzz = ar.qxx[:0], ar.qyy[:0], ar.qzz[:0]
	ar.qxy, ar.qxz, ar.qyz = ar.qxy[:0], ar.qxz[:0], ar.qyz[:0]
	ar.px, ar.py, ar.pz, ar.pm = ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
	ar.pidx = ar.pidx[:0]
	d := &ar.dual
	d.t, d.sel, d.ar = t, sel, ar
	d.th2 = theta * theta
	d.quad = t.Quadrupole
	d.eval = eval
	d.u = append(d.u[:0], 0) // the whole tree, undecided
	d.target(ni, 0, 1, eps, st)
	// Drop the state's borrowed references so an idle arena does not
	// pin the tree (trees are rebuilt every step).
	d.t, d.sel = nil, nil
	ar.pendWalks++
	ar.pendDualTasks++
}

// target refines the undecided source list d.u[ulo:uhi] against tree
// node ni. Invariants: len(d.u) == uhi on entry and on exit; cells
// appended here are truncated on exit (they apply only to this
// subtree); particles are appended and consumed at group level only.
func (d *dualState) target(ni int32, ulo, uhi int, eps float64, st *Stats) {
	t := d.t
	n := &t.Nodes[ni]
	first, count := n.First, n.Count
	if d.sel.count(first, first+count) == 0 {
		// No selected target anywhere below: prune the whole subtree in
		// O(1) off the selection's prefix counts.
		return
	}
	ar := d.ar
	cellMark := len(ar.cm)
	group := n.Leaf || count <= DefaultGroupSize
	if group {
		// Tight AABB over the group's selected real targets — tighter
		// than the octree box, which is mostly empty space.
		// Pseudo-particle and unselected sources are never evaluated, so
		// they don't constrain the MAC.
		var lx, ly, lz, hx, hy, hz float64
		none := true
		for j := first; j < first+count; j++ {
			s := &t.Sources[j]
			if !d.sel.selected(s) {
				continue
			}
			if none {
				lx, ly, lz = s.X, s.Y, s.Z
				hx, hy, hz = s.X, s.Y, s.Z
				none = false
				continue
			}
			lx, hx = min(lx, s.X), max(hx, s.X)
			ly, hy = min(ly, s.Y), max(hy, s.Y)
			lz, hz = min(lz, s.Z), max(hz, s.Z)
		}
		if none {
			// Only pseudo-particles below (LET import): nothing to do.
			return
		}
		d.tx, d.hx = (lx+hx)/2, (hx-lx)/2
		d.ty, d.hy = (ly+hy)/2, (hy-ly)/2
		d.tz, d.hz = (lz+hz)/2, (hz-lz)/2
	} else {
		b := &t.Boxes[ni]
		d.tx, d.ty, d.tz = b.CX, b.CY, b.CZ
		d.hx, d.hy, d.hz = b.Half, b.Half, b.Half
	}
	d.isGroup = group
	for k := ulo; k < uhi; k++ {
		d.refine(d.u[k])
	}
	if group {
		if d.eval {
			t.evalTargets(first, count, eps, d.sel, ar, st)
		} else {
			t.countTargets(first, count, d.sel, ar, st)
		}
		ar.pendDualGroups++
		ar.pendCells += uint64(len(ar.cm))
		ar.pendParts += uint64(len(ar.pm))
		ar.px, ar.py, ar.pz, ar.pm = ar.px[:0], ar.py[:0], ar.pz[:0], ar.pm[:0]
		ar.pidx = ar.pidx[:0]
	} else {
		newHi := len(d.u)
		for ci := ni + 1; ci < n.Skip; ci = t.Nodes[ci].Skip {
			d.target(ci, uhi, newHi, eps, st)
		}
		d.u = d.u[:uhi]
	}
	ar.cx, ar.cy, ar.cz, ar.cm = ar.cx[:cellMark], ar.cy[:cellMark], ar.cz[:cellMark], ar.cm[:cellMark]
	if d.quad {
		ar.qxx, ar.qyy, ar.qzz = ar.qxx[:cellMark], ar.qyy[:cellMark], ar.qzz[:cellMark]
		ar.qxy, ar.qxz, ar.qyz = ar.qxy[:cellMark], ar.qxz[:cellMark], ar.qyz[:cellMark]
	}
}

// refine decides source node u against the current target frame:
// skip it if it holds no mass, accept it as a cell for everything below
// the frame, resolve it into particles (group frames), open it and
// decide its children here, or defer it — still undecided — to the
// frame's target children.
//
// The node's box lives in the cold Boxes array: the disjointness guard
// only matters when the target box can possibly overlap the cell, and a
// point of a box of side s is within s·√3 of any other of its points,
// so dmin2 > 3·Size2 proves the boxes disjoint without touching Boxes.
func (d *dualState) refine(u int32) {
	nodes := d.t.Nodes
	n := &nodes[u]
	if n.M == 0 {
		return
	}
	d.ar.pendDualMAC++
	dx := max(0, math.Abs(n.CX-d.tx)-d.hx)
	dy := max(0, math.Abs(n.CY-d.ty)-d.hy)
	dz := max(0, math.Abs(n.CZ-d.tz)-d.hz)
	dmin2 := dx*dx + dy*dy + dz*dz
	if n.Size2 < d.th2*dmin2 && (dmin2 > 3*n.Size2 ||
		boxDisjointAABB(d.t.Boxes[u], d.tx, d.ty, d.tz, d.hx, d.hy, d.hz)) {
		ar := d.ar
		ar.cx = append(ar.cx, n.CX)
		ar.cy = append(ar.cy, n.CY)
		ar.cz = append(ar.cz, n.CZ)
		ar.cm = append(ar.cm, n.M)
		if d.quad {
			q := d.t.Quad[6*u : 6*u+6]
			ar.qxx = append(ar.qxx, q[0])
			ar.qyy = append(ar.qyy, q[1])
			ar.qzz = append(ar.qzz, q[2])
			ar.qxy = append(ar.qxy, q[3])
			ar.qxz = append(ar.qxz, q[4])
			ar.qyz = append(ar.qyz, q[5])
		}
		if !d.isGroup {
			// Accepted above group level: one MAC test substitutes for a
			// test per descendant group.
			ar.pendDualHoisted++
		}
		return
	}
	if n.Leaf {
		if d.isGroup {
			ar := d.ar
			srcs := d.t.Sources
			for j := n.First; j < n.First+n.Count; j++ {
				s := &srcs[j]
				ar.px = append(ar.px, s.X)
				ar.py = append(ar.py, s.Y)
				ar.pz = append(ar.pz, s.Z)
				ar.pm = append(ar.pm, s.M)
				ar.pidx = append(ar.pidx, int32(s.Index))
			}
			return
		}
		d.u = append(d.u, u)
		return
	}
	// Rejected internal source: open the bigger side. Group frames
	// cannot defer (there are no target children), and when the boxes
	// are the same size the target splits first, so the descent always
	// terminates even though source and target are the same tree.
	if d.isGroup || d.t.Boxes[u].Half > max(d.hx, max(d.hy, d.hz)) {
		for c := u + 1; c < n.Skip; c = nodes[c].Skip {
			d.refine(c)
		}
		return
	}
	d.u = append(d.u, u)
}

// boxDisjointAABB reports whether cube b and the axis-aligned box
// (centre tx/ty/tz, half-extents hx/hy/hz) are separated on some axis —
// strictly positive distance, the box analog of the point walk's
// !Contains guard.
func boxDisjointAABB(b Box, tx, ty, tz, hx, hy, hz float64) bool {
	return math.Abs(b.CX-tx) > b.Half+hx ||
		math.Abs(b.CY-ty) > b.Half+hy ||
		math.Abs(b.CZ-tz) > b.Half+hz
}

// laneBlock is the lane kernels' operand block: four targets, one per
// 64-bit lane, with their accumulators. self holds each lane's particle
// index in both 32-bit halves, so one dword broadcast of a list index
// compares against all four lanes (kernel_amd64.s).
type laneBlock struct {
	x, y, z    [4]float64
	ax, ay, az [4]float64
	self       [4]uint64
	skipped    [4]int64
}

// set loads target (x, y, z) with particle index idx into lane k.
func (lb *laneBlock) set(k int, x, y, z float64, idx int32) {
	lb.x[k], lb.y[k], lb.z[k] = x, y, z
	lb.self[k] = uint64(uint32(idx)) * 0x1_0000_0001
}

// evalTargets evaluates the arena's current shared interaction list —
// all cells, then all leaf sources with per-target self-exclusion —
// for every selected real target in the key-sorted source range
// [first, first+count), appending (index, acceleration) rows to the
// arena's target buffers. It is the dual engine's single evaluation
// path, and the one place its softening handling lives. Stats count
// per-target interactions exactly as the per-particle walk would
// (self-matches are excluded from PP). Monopole lists go through the
// lane kernels four targets at a time when the CPU has them; they give
// the Go kernels' bits.
func (t *Tree) evalTargets(first, count int32, eps float64, sel *Selection, ar *WalkArena, st *Stats) {
	eps2 := softening2(eps)
	cells := len(ar.cm)
	parts := len(ar.pm)
	quad := t.Quadrupole
	lanes := vecKernels && !quad
	var lb laneBlock
	live := 0
	targets := 0
	for i := first; i < first+count; i++ {
		s := &t.Sources[i]
		if !sel.selected(s) {
			continue
		}
		targets++
		if lanes {
			lb.set(live, s.X, s.Y, s.Z, int32(s.Index))
			if live++; live == 4 {
				ar.evalLanes(&lb, live, eps2, st)
				live = 0
			}
			continue
		}
		var ax, ay, az float64
		if quad {
			ax, ay, az = ar.evalCellsQuad(s.X, s.Y, s.Z, eps2, 0, cells, ax, ay, az)
		} else {
			ax, ay, az = ar.evalCellsMono(s.X, s.Y, s.Z, eps2, 0, cells, ax, ay, az)
		}
		var skipped int
		ax, ay, az, skipped = ar.evalPartsExcept(s.X, s.Y, s.Z, eps2, int32(s.Index), 0, parts, ax, ay, az)
		st.PC += uint64(cells)
		st.PP += uint64(parts - skipped)
		ar.tIdx = append(ar.tIdx, int32(s.Index))
		ar.tax = append(ar.tax, ax)
		ar.tay = append(ar.tay, ay)
		ar.taz = append(ar.taz, az)
	}
	if live > 0 {
		// Pad the idle lanes with the first target, so they compute on
		// real data at the live lanes' speed; their rows are dropped.
		for k := live; k < 4; k++ {
			lb.x[k], lb.y[k], lb.z[k], lb.self[k] = lb.x[0], lb.y[0], lb.z[0], lb.self[0]
		}
		ar.evalLanes(&lb, live, eps2, st)
	}
	if targets > 1 {
		// One traversal served `targets` particles: targets−1 walks saved.
		ar.pendSaved += uint64(targets - 1)
	}
}

// countTargets adds to st exactly what evalTargets would for the
// arena's current list and the same targets, and flushes the same
// group savings, without evaluating a force. Each selected target
// interacts with every cell and with every leaf source but the entries
// carrying its own particle index: the matches the kernels skip. One
// pass over the list finds them: a 1024-bit filter on the low index
// bits of the group's targets passes few entries, and those are looked
// up in the targets' sorted indices.
func (t *Tree) countTargets(first, count int32, sel *Selection, ar *WalkArena, st *Stats) {
	var filter [16]uint64
	self := ar.self[:0]
	for i := first; i < first+count; i++ {
		if s := &t.Sources[i]; sel.selected(s) {
			idx := int32(s.Index)
			self = append(self, idx)
			filter[idx>>6&15] |= 1 << (idx & 63)
		}
	}
	ar.self = self
	slices.Sort(self)
	var skipped uint64
	for _, p := range ar.pidx {
		if filter[p>>6&15]&(1<<(p&63)) == 0 {
			continue
		}
		j, _ := slices.BinarySearch(self, p)
		for ; j < len(self) && self[j] == p; j++ {
			skipped++
		}
	}
	targets := uint64(len(self))
	st.PC += targets * uint64(len(ar.cm))
	st.PP += targets*uint64(len(ar.pm)) - skipped
	if targets > 1 {
		ar.pendSaved += targets - 1
	}
}

// evalLanes runs the lane kernels over the arena's list for the
// targets loaded in lb and appends the first live lanes' rows. Each
// accumulator starts at +0 and so never holds −0 (a sum is −0 only
// when both addends are), which makes adding a masked self term's +0.0
// leave it unchanged — the Go kernel's skip, bit for bit.
func (ar *WalkArena) evalLanes(lb *laneBlock, live int, eps2 float64, st *Stats) {
	lb.ax, lb.ay, lb.az = [4]float64{}, [4]float64{}, [4]float64{}
	lb.skipped = [4]int64{}
	cellsMono4(lb, eps2, ar.cx, ar.cy, ar.cz, ar.cm)
	partsExcept4(lb, eps2, ar.px, ar.py, ar.pz, ar.pm, ar.pidx)
	for k := 0; k < live; k++ {
		st.PC += uint64(len(ar.cm))
		st.PP += uint64(int64(len(ar.pm)) - lb.skipped[k])
		ar.tIdx = append(ar.tIdx, int32(uint32(lb.self[k])))
		ar.tax = append(ar.tax, lb.ax[k])
		ar.tay = append(ar.tay, lb.ay[k])
		ar.taz = append(ar.taz, lb.az[k])
	}
}

// NumTargets reports how many targets the last DualForceWalk filled.
func (ar *WalkArena) NumTargets() int { return len(ar.tIdx) }

// Target returns the k-th target's particle index and acceleration.
func (ar *WalkArena) Target(k int) (idx int, ax, ay, az float64) {
	return int(ar.tIdx[k]), ar.tax[k], ar.tay[k], ar.taz[k]
}

// AppendGroups appends, in DFS preorder, the node indices of the
// maximal subtrees holding at most maxParts particles — a disjoint
// cover of all sources. Each returned node is a valid DualForceWalk
// task: its particles are the contiguous source range
// [First, First+Count). maxParts below the leaf bucket yields every
// leaf.
func (t *Tree) AppendGroups(out []int32, maxParts int) []int32 {
	for i := int32(0); i < int32(len(t.Nodes)); {
		n := &t.Nodes[i]
		if n.Leaf || int(n.Count) <= maxParts {
			out = append(out, i)
			i = n.Skip
			continue
		}
		i++
	}
	return out
}
