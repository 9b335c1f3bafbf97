// Fabric topologies beyond the paper's star: k-ary fat-trees and 2D/3D
// tori with rank-pair hop counts, plus *exact* closed forms for the
// collectives the MPI layer runs on them. The classic formulas in
// netsim.go are analytical approximations (loose-window checked); the
// predictors here — AllreduceTime, BcastTime, ReduceTime, FanInTime —
// replay the substrate's per-rank virtual-clock recurrence message by
// message, so the emergent times from internal/mpi match them
// bit-for-bit on every topology.
package netsim

import (
	"fmt"
	"strings"
)

// Topology is the shape of a Fabric.
type Topology int

const (
	// TopoStar is the paper's single non-blocking switch: all pairs are
	// Fabric.Hops apart. The zero value — legacy fabrics are stars.
	TopoStar Topology = iota
	// TopoFatTree is a k-ary fat-tree (k = Fabric.Radix): 2 hops inside
	// a leaf switch, 4 inside a pod, 6 across pods.
	TopoFatTree
	// TopoTorus2D is an X×Y torus with single-hop neighbour links; the
	// hop count is the wrapped Manhattan distance.
	TopoTorus2D
	// TopoTorus3D is an X×Y×Z torus.
	TopoTorus3D
)

// String names the topology for tables and logs.
func (t Topology) String() string {
	switch t {
	case TopoStar:
		return "star"
	case TopoFatTree:
		return "fattree"
	case TopoTorus2D:
		return "torus2d"
	case TopoTorus3D:
		return "torus3d"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// torusDist is the wrapped one-dimensional distance on a ring of n.
func torusDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// HopsBetween returns the link count between two ranks on this
// topology. A star returns Fabric.Hops for every pair, so legacy
// fabrics are unchanged.
func (f *Fabric) HopsBetween(src, dst int) int {
	if src == dst {
		return 0
	}
	switch f.Topology {
	case TopoFatTree:
		half := f.Radix / 2
		if half < 1 {
			return f.Hops
		}
		if src/half == dst/half {
			return 2 // up to the shared leaf switch and back down
		}
		if pod := half * half; src/pod == dst/pod {
			return 4 // via an aggregation switch inside the pod
		}
		return 6 // via the core layer
	case TopoTorus2D:
		return torusDist(src%f.TorusX, dst%f.TorusX, f.TorusX) +
			torusDist(src/f.TorusX, dst/f.TorusX, f.TorusY)
	case TopoTorus3D:
		plane := f.TorusX * f.TorusY
		return torusDist(src%f.TorusX, dst%f.TorusX, f.TorusX) +
			torusDist((src/f.TorusX)%f.TorusY, (dst/f.TorusX)%f.TorusY, f.TorusY) +
			torusDist(src/plane, dst/plane, f.TorusZ)
	default:
		return f.Hops
	}
}

// PointToPointRanks is PointToPoint with the hop count taken from the
// actual rank pair. On a star it computes exactly what PointToPoint
// does, bit for bit.
func (f *Fabric) PointToPointRanks(src, dst, bytes int) float64 {
	return f.pointToPointHops(f.HopsBetween(src, dst), bytes)
}

func (f *Fabric) pointToPointHops(hops, bytes int) float64 {
	t := f.SoftwareOverhead + float64(hops)*f.HopLatency
	if f.StoreAndForward {
		t += float64(hops) * f.serialize(bytes)
	} else {
		t += f.serialize(bytes)
	}
	return t
}

// Capacity returns the host count the topology can address, or 0 when
// unbounded (a star switch scales by assumption).
func (f *Fabric) Capacity() int {
	switch f.Topology {
	case TopoFatTree:
		return f.Radix * f.Radix * f.Radix / 4
	case TopoTorus2D:
		return f.TorusX * f.TorusY
	case TopoTorus3D:
		return f.TorusX * f.TorusY * f.TorusZ
	default:
		return 0
	}
}

// GroupWidth is the natural first-level group size for hierarchical
// collectives: ranks within one group are the topology's cheapest
// neighbourhood (a fat-tree leaf switch, a torus row). 0 means the
// topology is flat and has no preferred grouping.
func (f *Fabric) GroupWidth() int {
	switch f.Topology {
	case TopoFatTree:
		return f.Radix / 2
	case TopoTorus2D, TopoTorus3D:
		return f.TorusX
	default:
		return 0
	}
}

// ApplyTopology configures f in place as the named fabric shape, sized
// to hold p ranks: "star" (or "") leaves the flat switch, "fattree"
// picks the smallest even radix with k³/4 ≥ p, "torus2d"/"torus3d"
// pick near-square (near-cubic) dimensions covering p.
func ApplyTopology(f *Fabric, name string, p int) error {
	if p < 1 {
		return fmt.Errorf("netsim: topology %q needs a positive rank count, got %d", name, p)
	}
	switch strings.ToLower(name) {
	case "", "star":
		return nil
	case "fattree":
		k := 2
		for k*k*k/4 < p {
			k += 2
		}
		f.Topology = TopoFatTree
		f.Radix = k
		f.Name = fmt.Sprintf("%s, %d-ary fat-tree", f.Name, k)
	case "torus", "torus2d":
		x := 1
		for x*x < p {
			x++
		}
		f.Topology = TopoTorus2D
		f.TorusX = x
		f.TorusY = (p + x - 1) / x
		f.Name = fmt.Sprintf("%s, %dx%d torus", f.Name, f.TorusX, f.TorusY)
	case "torus3d":
		x := 1
		for x*x*x < p {
			x++
		}
		y := 1
		for x*y*y < p {
			y++
		}
		f.Topology = TopoTorus3D
		f.TorusX = x
		f.TorusY = y
		f.TorusZ = (p + x*y - 1) / (x * y)
		f.Name = fmt.Sprintf("%s, %dx%dx%d torus", f.Name, f.TorusX, f.TorusY, f.TorusZ)
	default:
		return fmt.Errorf("netsim: unknown fabric topology %q (want star, fattree, torus2d, torus3d)", name)
	}
	return f.Validate()
}

// --- exact collective predictors -----------------------------------
//
// These replay the MPI substrate's virtual-clock rules:
//
//	send: arrival = clock[src] + PointToPointRanks(src, dst, bytes)
//	      clock[src] += SoftwareOverhead/2
//	recv: clock[dst] = max(clock[dst], arrival)
//
// in the exact per-rank program order of the collectives in
// internal/mpi, so the results are bit-identical to the emergent times.

// replaySend mirrors Comm.send and returns the message's arrival time.
func (f *Fabric) replaySend(src, dst, bytes int, clock []float64) float64 {
	arrival := clock[src] + f.PointToPointRanks(src, dst, bytes)
	clock[src] += f.SoftwareOverhead / 2
	return arrival
}

// replayRecv mirrors Comm.recv: the receiver's clock advances to the
// arrival.
func replayRecv(r int, arrival float64, clock []float64) {
	if arrival > clock[r] {
		clock[r] = arrival
	}
}

// seqMember maps virtual rank v of a collective subgroup — the
// arithmetic sequence base, base+stride, … of count ranks, rotated so
// the member at rootIdx is virtual rank 0 — to its world rank. The
// same mapping the MPI layer's group collectives use.
func seqMember(base, stride, count, rootIdx int) func(int) int {
	return func(v int) int { return base + stride*((v+rootIdx)%count) }
}

// replayGroupReduce replays the binomial-tree reduction onto virtual
// rank 0 of the subgroup. A child has a higher virtual rank than its
// parent, so walking v downward sees every child's send clock before
// its parent consumes it.
func (f *Fabric) replayGroupReduce(member func(int) int, count, bytes int, clock []float64) {
	if count <= 1 {
		return
	}
	arrivals := make([]float64, count)
	for v := count - 1; v >= 0; v-- {
		r := member(v)
		for dist := 1; dist < count; dist *= 2 {
			if v%(2*dist) == 0 {
				if src := v + dist; src < count {
					replayRecv(r, arrivals[src], clock)
				}
			} else {
				arrivals[v] = f.replaySend(r, member(v-dist), bytes, clock)
				break
			}
		}
	}
}

// replayGroupBcast replays the binomial-tree broadcast from virtual
// rank 0. Parents have lower virtual ranks, so walking v upward
// records each arrival before the child consumes it.
func (f *Fabric) replayGroupBcast(member func(int) int, count, bytes int, clock []float64) {
	if count <= 1 {
		return
	}
	top := 1
	for top < count {
		top *= 2
	}
	arrivals := make([]float64, count)
	for v := 0; v < count; v++ {
		r := member(v)
		for dist := top / 2; dist >= 1; dist /= 2 {
			switch v % (2 * dist) {
			case 0:
				if c := v + dist; c < count {
					arrivals[c] = f.replaySend(r, member(c), bytes, clock)
				}
			case dist:
				replayRecv(r, arrivals[v], clock)
			}
		}
	}
}

// hierWidth mirrors the MPI layer's dispatch: hierarchical collectives
// activate when the topology has a group width strictly between 1 and p.
func (f *Fabric) hierWidth(p int) int {
	if w := f.GroupWidth(); w > 1 && w < p {
		return w
	}
	return 0
}

func maxClock(clock []float64) float64 {
	m := 0.0
	for _, c := range clock {
		if c > m {
			m = c
		}
	}
	return m
}

// AllreduceTime is the exact completion time (max over ranks) of the
// substrate's allreduce of a bytes-sized buffer: the
// hierarchical group schedule on topologies with a group width, the
// classic reduce+broadcast otherwise.
func (f *Fabric) AllreduceTime(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	clock := make([]float64, p)
	if w := f.hierWidth(p); w > 0 {
		g := (p + w - 1) / w
		for base := 0; base < p; base += w {
			n := min(w, p-base)
			f.replayGroupReduce(seqMember(base, 1, n, 0), n, bytes, clock)
		}
		f.replayGroupReduce(seqMember(0, w, g, 0), g, bytes, clock)
		f.replayGroupBcast(seqMember(0, w, g, 0), g, bytes, clock)
		for base := 0; base < p; base += w {
			n := min(w, p-base)
			f.replayGroupBcast(seqMember(base, 1, n, 0), n, bytes, clock)
		}
	} else {
		f.replayGroupReduce(seqMember(0, 1, p, 0), p, bytes, clock)
		f.replayGroupBcast(seqMember(0, 1, p, 0), p, bytes, clock)
	}
	return maxClock(clock)
}

// BcastTime is the exact completion time of the substrate's broadcast
// of bytes from rank 0: hierarchical (leaders, then leaf groups) on
// topologies with a group width, the classic binomial tree otherwise.
func (f *Fabric) BcastTime(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	clock := make([]float64, p)
	if w := f.hierWidth(p); w > 0 {
		g := (p + w - 1) / w
		f.replayGroupBcast(seqMember(0, w, g, 0), g, bytes, clock)
		for base := 0; base < p; base += w {
			n := min(w, p-base)
			f.replayGroupBcast(seqMember(base, 1, n, 0), n, bytes, clock)
		}
	} else {
		f.replayGroupBcast(seqMember(0, 1, p, 0), p, bytes, clock)
	}
	return maxClock(clock)
}

// ReduceTime is the exact completion time of the substrate's
// binomial-tree reduction onto rank 0 (reductions stay flat on every
// topology; only allreduce and bcast go hierarchical).
func (f *Fabric) ReduceTime(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	clock := make([]float64, p)
	f.replayGroupReduce(seqMember(0, 1, p, 0), p, bytes, clock)
	return maxClock(clock)
}

// FanInTime is the exact time for ranks 1..p-1 to each deliver bytes
// to rank 0, consumed in source order — the distance-aware counterpart
// of the approximate FanIn.
func (f *Fabric) FanInTime(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	clock := make([]float64, p)
	for src := 1; src < p; src++ {
		arrival := f.replaySend(src, 0, bytes, clock)
		replayRecv(0, arrival, clock)
	}
	return clock[0]
}
