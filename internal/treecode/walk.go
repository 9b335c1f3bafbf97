package treecode

import "math"

// This file holds the dual-tree walk's machinery: the per-worker arena
// its interaction lists live in, and the flat kernels that evaluate
// those lists.

// WalkArena is the reusable scratch of one dual-tree walk: the SoA
// interaction lists and the per-group target outputs. Arenas are owned
// per worker — the Forcer keeps one per internal/par pool slot — so
// the steady-state force path appends into warm buffers and performs
// no allocations. An arena must not be shared by concurrent walks.
type WalkArena struct {
	// Accepted-cell columns: centre of mass, monopole mass, and (when
	// the tree carries them) traceless quadrupole moments.
	cx, cy, cz, cm               []float64
	qxx, qyy, qzz, qxy, qxz, qyz []float64

	// Leaf-source columns. pidx carries each source's particle index, so
	// per-target self-exclusion happens at evaluation time.
	px, py, pz, pm []float64
	pidx           []int32

	// Target outputs: particle index and accumulated acceleration for
	// every evaluated target of the walk.
	tIdx          []int32
	tax, tay, taz []float64

	// self holds a counting walk's current group's target indices,
	// sorted.
	self []int32

	// dual is the dual-tree engine's reusable traversal state.
	dual dualState

	// Pending telemetry, flushed to the package counters in batches so
	// the hot loops never touch an atomic.
	pendWalks, pendCells, pendParts, pendSaved uint64
	pendDualTasks, pendDualMAC                 uint64
	pendDualHoisted, pendDualGroups            uint64
}

// NewWalkArena returns an empty arena (counted by
// treecode.list.arena.alloc).
func NewWalkArena() *WalkArena {
	listArenaAlloc.Inc()
	return &WalkArena{}
}

// FlushTelemetry adds the arena's pending walk/list counts to the
// package-wide treecode.list.* and treecode.dual.* counters. Callers
// flush at coarse boundaries (once per Forces call, once per rank) so
// walks stay atomic-free.
func (ar *WalkArena) FlushTelemetry() {
	if ar.pendWalks > 0 {
		listWalks.Add(ar.pendWalks)
		ar.pendWalks = 0
	}
	if ar.pendCells > 0 {
		listCells.Add(ar.pendCells)
		ar.pendCells = 0
	}
	if ar.pendParts > 0 {
		listParts.Add(ar.pendParts)
		ar.pendParts = 0
	}
	if ar.pendSaved > 0 {
		listGroupSaved.Add(ar.pendSaved)
		ar.pendSaved = 0
	}
	if ar.pendDualTasks > 0 {
		dualTasks.Add(ar.pendDualTasks)
		ar.pendDualTasks = 0
	}
	if ar.pendDualMAC > 0 {
		dualMAC.Add(ar.pendDualMAC)
		ar.pendDualMAC = 0
	}
	if ar.pendDualHoisted > 0 {
		dualHoisted.Add(ar.pendDualHoisted)
		ar.pendDualHoisted = 0
	}
	if ar.pendDualGroups > 0 {
		dualGroups.Add(ar.pendDualGroups)
		ar.pendDualGroups = 0
	}
}

// evalCellsMono evaluates cell monopoles [lo,hi) of the list for a
// target at (x,y,z), with the recursive walk's expression shape —
// mono := M·rinv·rinv2 with rinv2 := rinv·rinv.
func (ar *WalkArena) evalCellsMono(x, y, z, eps2 float64, lo, hi int, ax, ay, az float64) (float64, float64, float64) {
	cx, cy, cz, cm := ar.cx, ar.cy, ar.cz, ar.cm
	for i := lo; i < hi; i++ {
		dx := cx[i] - x
		dy := cy[i] - y
		dz := cz[i] - z
		d2 := dx*dx + dy*dy + dz*dz
		r2 := d2 + eps2
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		mono := cm[i] * rinv * rinv2
		ax += mono * dx
		ay += mono * dy
		az += mono * dz
	}
	return ax, ay, az
}

// evalCellsQuad is evalCellsMono plus the traceless-quadrupole term,
// again with the recursive walk's exact expression shapes.
func (ar *WalkArena) evalCellsQuad(x, y, z, eps2 float64, lo, hi int, ax, ay, az float64) (float64, float64, float64) {
	cx, cy, cz, cm := ar.cx, ar.cy, ar.cz, ar.cm
	qxx, qyy, qzz := ar.qxx, ar.qyy, ar.qzz
	qxy, qxz, qyz := ar.qxy, ar.qxz, ar.qyz
	for i := lo; i < hi; i++ {
		dx := cx[i] - x
		dy := cy[i] - y
		dz := cz[i] - z
		d2 := dx*dx + dy*dy + dz*dz
		r2 := d2 + eps2
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		mono := cm[i] * rinv * rinv2
		ax += mono * dx
		ay += mono * dy
		az += mono * dz
		qx := qxx[i]*dx + qxy[i]*dy + qxz[i]*dz
		qy := qxy[i]*dx + qyy[i]*dy + qyz[i]*dz
		qz := qxz[i]*dx + qyz[i]*dy + qzz[i]*dz
		rinv5 := rinv2 * rinv2 * rinv
		rqr := qx*dx + qy*dy + qz*dz
		c1 := -rinv5
		c2 := 2.5 * rqr * rinv5 * rinv2
		ax += c1*qx + c2*dx
		ay += c1*qy + c2*dy
		az += c1*qz + c2*dz
	}
	return ax, ay, az
}

// evalPartsExcept evaluates leaf sources [lo,hi) of the list with
// per-target self-exclusion by particle index, since one list serves
// every target of a group. The expression shape is the recursive leaf
// loop's (f := m·rinv·rinv·rinv — the association differs from the
// cell monopole's, deliberately). Returns the number of excluded
// entries so the caller's PP count matches the per-particle walk's.
func (ar *WalkArena) evalPartsExcept(x, y, z, eps2 float64, selfIdx int32, lo, hi int, ax, ay, az float64) (float64, float64, float64, int) {
	sx, sy, sz, sm, idx := ar.px, ar.py, ar.pz, ar.pm, ar.pidx
	skipped := 0
	for i := lo; i < hi; i++ {
		if idx[i] == selfIdx {
			skipped++
			continue
		}
		px := sx[i] - x
		py := sy[i] - y
		pz := sz[i] - z
		r2 := px*px + py*py + pz*pz + eps2
		rinv := 1 / math.Sqrt(r2)
		f := sm[i] * rinv * rinv * rinv
		ax += f * px
		ay += f * py
		az += f * pz
	}
	return ax, ay, az, skipped
}

// softening2 is the one place the Plummer softening length becomes the
// squared softening every force kernel consumes — shared by the
// recursive and dual paths so they cannot drift.
func softening2(eps float64) float64 { return eps * eps }
