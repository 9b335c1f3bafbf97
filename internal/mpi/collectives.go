package mpi

import "fmt"

// Collective tags live in a reserved range so user point-to-point traffic
// (tags ≥ 0) can never collide with them. The values are fixed, not
// iota-numbered: trace spans and deadlock diagnostics print them.
const (
	tagBarrier   = -1
	tagBcast     = -2
	tagReduce    = -3
	tagAllgather = -6
	tagAlltoall  = -7
)

// Op is a reduction operator over float64 elements.
type Op func(a, b float64) float64

// Standard reduction operators.
var (
	Sum Op = func(a, b float64) float64 { return a + b }
	Max Op = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	Min Op = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// The float64 collectives (AllreduceInto, BcastInto, ReduceInto,
// AllgatherInto) work in place on caller-provided buffers and draw
// every wire copy from the rank's buffer pool, so a steady-state
// iteration allocates nothing. AlltoallInts returns pooled rows the
// caller recycles with ReleaseI64.
//
// On fabrics with a topology (fat-tree, torus) AllreduceInto and
// BcastInto go hierarchical automatically: the binomial schedules run
// over subgroups shaped to the fabric's cheapest neighbourhood
// (netsim.Fabric.GroupWidth) — first within each group, then across
// group leaders. The subgroup forms (groupReduceInto/groupBcastInto)
// generalize the classic schedules: over the whole world they send
// exactly the classic message sequence, so flat fabrics keep their
// historical virtual times, and the emergent hierarchical times match
// netsim's exact predictors (AllreduceTime/BcastTime) bit-for-bit.

// groupMember maps virtual rank v of a collective subgroup — the
// arithmetic sequence base, base+stride, … of count ranks, rotated so
// the member at rootIdx is virtual rank 0 — to its world rank. With
// base 0, stride 1, count p and rootIdx root this is exactly the
// classic (rank−root) mod p rotation.
func groupMember(base, stride, count, rootIdx, v int) int {
	return base + stride*((v+rootIdx)%count)
}

// hierWidth reports the first-level group width when the fabric makes
// hierarchical collectives worthwhile (strictly between 1 and p), 0
// otherwise. netsim's exact predictors mirror this dispatch.
func (c *Comm) hierWidth() int {
	f := c.world.fabric
	if f == nil {
		return 0
	}
	if w := f.GroupWidth(); w > 1 && w < c.world.size {
		return w
	}
	return 0
}

// sendDisposableF64 sends a pooled buffer the caller is finished with:
// payloads under DefaultRendezvousThreshold take the eager path (copied
// into a fresh pooled buffer, modelling the transport's bounce buffer,
// and the original is recycled immediately); larger payloads transfer
// ownership without a copy.
func (c *Comm) sendDisposableF64(dst, tag int, buf []float64) {
	if 8*len(buf) >= DefaultRendezvousThreshold {
		c.sendF64(dst, tag, buf, true)
		return
	}
	c.sendF64(dst, tag, buf, false)
	c.pool.releaseF64(buf)
}

// Barrier synchronizes all ranks (dissemination algorithm: ceil(log2 p)
// rounds of pairwise messages).
func (c *Comm) Barrier() {
	prev := c.enterCollective(ctxBarrier)
	defer c.exitCollective(prev)
	p := c.Size()
	for dist := 1; dist < p; dist *= 2 {
		to := (c.rank + dist) % p
		from := (c.rank - dist + p) % p
		if to == c.rank {
			continue
		}
		c.send(to, message{tag: tagBarrier}, true)
		c.recv(from, tagBarrier)
	}
}

// BcastInto broadcasts root's buf into every rank's buf, in place. All
// ranks must pass equal-length buffers. The schedule is a binomial
// tree.
func (c *Comm) BcastInto(root int, buf []float64) {
	prev := c.enterCollective(ctxBcast)
	defer c.exitCollective(prev)
	if w := c.hierWidth(); w > 0 {
		c.hierBcastInto(root, buf, w)
		return
	}
	c.groupBcastInto(0, 1, c.Size(), root, buf)
}

// groupBcastInto runs the classic binomial broadcast over a subgroup
// (see groupMember), receiving into buf: a rank receives exactly once,
// at the stage matching its highest set bit, then relays at all
// smaller distances.
func (c *Comm) groupBcastInto(base, stride, count, rootIdx int, buf []float64) {
	if count <= 1 {
		return
	}
	idx := (c.rank - base) / stride
	vrank := (idx - rootIdx + count) % count
	top := 1
	for top < count {
		top *= 2
	}
	for dist := top / 2; dist >= 1; dist /= 2 {
		switch vrank % (2 * dist) {
		case 0:
			if dst := vrank + dist; dst < count {
				c.sendF64(groupMember(base, stride, count, rootIdx, dst), tagBcast, buf, false)
			}
		case dist:
			m := c.recv(groupMember(base, stride, count, rootIdx, vrank-dist), tagBcast)
			c.absorbBcast(buf, m.f64)
		}
	}
}

// absorbBcast copies a received broadcast payload into buf and
// recycles the wire buffer.
func (c *Comm) absorbBcast(buf, wire []float64) {
	if len(wire) != len(buf) {
		panic(fmt.Sprintf("mpi: bcast length mismatch %d vs %d", len(wire), len(buf)))
	}
	copy(buf, wire)
	c.pool.releaseF64(wire)
}

// hierBcastInto is the topology-aware broadcast: the root hands the
// buffer to its group leader, the leaders run a binomial broadcast
// among themselves, then each leader broadcasts within its group — the
// deep (cross-pod, cross-ring) links carry O(log(p/w)) messages
// instead of O(log p).
func (c *Comm) hierBcastInto(root int, buf []float64, w int) {
	p := c.world.size
	rootLeader := (root / w) * w
	if root != rootLeader {
		if c.rank == root {
			c.sendF64(rootLeader, tagBcast, buf, false)
		} else if c.rank == rootLeader {
			m := c.recv(root, tagBcast)
			c.absorbBcast(buf, m.f64)
		}
	}
	base := (c.rank / w) * w
	if c.rank == base {
		g := (p + w - 1) / w
		c.groupBcastInto(0, w, g, rootLeader/w, buf)
	}
	n := min(w, p-base)
	c.groupBcastInto(base, 1, n, 0, buf)
}

// ReduceInto combines elementwise with op onto root (binomial tree), in
// place in buf. buf is left combined at root and holds intermediate
// partials elsewhere. Returns true at root.
func (c *Comm) ReduceInto(root int, op Op, buf []float64) bool {
	prev := c.enterCollective(ctxReduce)
	defer c.exitCollective(prev)
	return c.groupReduceInto(0, 1, c.Size(), root, op, buf)
}

// groupReduceInto runs the classic binomial reduction over a subgroup
// (see groupMember), folding into buf; returns true on the member at
// rootIdx, which holds the result. buf belongs to the caller, so the
// non-root send copies it eagerly.
func (c *Comm) groupReduceInto(base, stride, count, rootIdx int, op Op, buf []float64) bool {
	if count <= 1 {
		return true
	}
	idx := (c.rank - base) / stride
	vrank := (idx - rootIdx + count) % count
	for dist := 1; dist < count; dist *= 2 {
		if vrank%(2*dist) == 0 {
			src := vrank + dist
			if src < count {
				c.reduceFold(op, buf, groupMember(base, stride, count, rootIdx, src))
			}
		} else {
			c.sendF64(groupMember(base, stride, count, rootIdx, vrank-dist), tagReduce, buf, false)
			return false
		}
	}
	return vrank == 0
}

// hierAllreduceInto is the topology-aware allreduce: reduce within
// each width-w group onto its leader (the group's lowest rank), reduce
// across leaders onto rank 0, broadcast back across leaders, then
// within each group. The first and last stages cross only the fabric's
// cheapest links.
func (c *Comm) hierAllreduceInto(op Op, buf []float64, w int) {
	p := c.world.size
	base := (c.rank / w) * w
	n := min(w, p-base)
	c.groupReduceInto(base, 1, n, 0, op, buf)
	if c.rank == base {
		g := (p + w - 1) / w
		c.groupReduceInto(0, w, g, 0, op, buf)
		c.groupBcastInto(0, w, g, 0, buf)
	}
	c.groupBcastInto(base, 1, n, 0, buf)
}

// reduceFold receives a partial result from src and folds it into acc,
// recycling the wire buffer.
func (c *Comm) reduceFold(op Op, acc []float64, src int) {
	wire := c.recv(src, tagReduce).f64
	if len(wire) != len(acc) {
		panic(fmt.Sprintf("mpi: reduce length mismatch %d vs %d", len(wire), len(acc)))
	}
	for i := range acc {
		acc[i] = op(acc[i], wire[i])
	}
	c.pool.releaseF64(wire)
}

// AllreduceInto combines elementwise with op in place: every rank's buf
// holds the combined result on return. The schedule is reduce-to-0 +
// broadcast (the MPICH algorithm on Ethernet).
func (c *Comm) AllreduceInto(op Op, buf []float64) {
	prev := c.enterCollective(ctxAllreduce)
	defer c.exitCollective(prev)
	if w := c.hierWidth(); w > 0 {
		c.hierAllreduceInto(op, buf, w)
		return
	}
	c.groupReduceInto(0, 1, c.Size(), 0, op, buf)
	c.groupBcastInto(0, 1, c.Size(), 0, buf)
}

// AllgatherInto gives every rank the concatenation (in rank order) of
// every rank's equal-length data, written into the caller's flat out
// buffer (len(out) == p*len(data)), via a ring: p-1 steps, each
// relaying the block received in the previous one. Relay buffers are
// recycled (or ownership-transferred when large), so a steady-state
// iteration allocates nothing.
func (c *Comm) AllgatherInto(data []float64, out []float64) {
	prev := c.enterCollective(ctxAllgather)
	defer c.exitCollective(prev)
	p := c.Size()
	n := len(data)
	if len(out) != p*n {
		panic(fmt.Sprintf("mpi: allgather out length %d, want %d", len(out), p*n))
	}
	copy(out[c.rank*n:], data)
	if p == 1 {
		return
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := data
	owned := false
	for step := 0; step < p-1; step++ {
		if owned {
			c.sendDisposableF64(right, tagAllgather, cur)
		} else {
			c.sendF64(right, tagAllgather, cur, false)
		}
		m := c.recv(left, tagAllgather)
		if len(m.f64) != n {
			panic(fmt.Sprintf("mpi: allgather length mismatch %d vs %d", len(m.f64), n))
		}
		src := (c.rank - step - 1 + p) % p
		copy(out[src*n:], m.f64)
		cur = m.f64
		owned = true
	}
	if owned {
		c.pool.releaseF64(cur)
	}
}

// AlltoallInts performs a personalized exchange: element send[d] goes to
// rank d; the result's element s came from rank s. Used by the IS bucket
// redistribution. Rows of the result are pooled buffers — recycle them
// with ReleaseI64 when done to keep the exchange allocation-free.
func (c *Comm) AlltoallInts(send [][]int64) [][]int64 {
	prev := c.enterCollective(ctxAlltoall)
	defer c.exitCollective(prev)
	p := c.Size()
	if len(send) != p {
		panic("mpi: alltoall needs one slice per rank")
	}
	out := make([][]int64, p)
	out[c.rank] = c.pool.copyI64(send[c.rank])
	for step := 1; step < p; step++ {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		c.sendI64(dst, tagAlltoall, send[dst], false)
		out[src] = c.recv(src, tagAlltoall).i64
	}
	return out
}
