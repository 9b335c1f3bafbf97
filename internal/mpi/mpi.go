// Package mpi is the message-passing substrate the paper's parallel codes
// (the treecode and the NAS benchmarks) run on. Ranks are goroutines
// running plain blocking MPI-style programs, so parallel results are
// genuinely computed in parallel; each rank additionally carries a
// virtual clock, advanced by modelled compute time (via the CPU op-mix
// models) and by message costs from a netsim.Fabric, so a run yields
// both a correct answer and a simulated parallel runtime on the
// modelled cluster.
//
// Messages travel through per-rank inboxes (inbox.go): sends never
// block, a receive waits only for its own sender, and lanes exist only
// for rank pairs that talk, so worlds of thousands of ranks cost little
// more than their goroutine stacks. Deadlocks are detected exactly —
// the moment every rank is blocked or finished — and reported with
// each rank's pending receive.
//
// Collectives are implemented on top of point-to-point sends (binomial
// trees, rings, dissemination barriers), so their virtual-time behaviour
// emerges from the same fabric model the analytical formulas in netsim
// describe — and the two are cross-checked in tests.
//
// The substrate is built for throughput on the host as well as fidelity
// on the modelled wire: payload buffers come from per-rank size-classed
// pools (pool.go), small payloads are eagerly copied while large ones
// take a rendezvous/ownership-transfer path, and the float64
// collectives work in place on caller buffers (collectives.go).
// Sweeping a rank axis therefore measures the modelled fabric, not host
// allocation churn.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// message is one in-flight point-to-point transfer.
type message struct {
	tag     int
	f64     []float64
	i64     []int64
	sent    float64 // virtual time the send was posted
	arrival float64 // virtual time the payload is fully received
}

func (m *message) payloadBytes() int {
	return 8*len(m.f64) + 8*len(m.i64)
}

// Collective kinds, for the per-collective traffic counters.
const (
	ctxP2P = iota
	ctxBarrier
	ctxBcast
	ctxReduce
	ctxAllreduce
	ctxAllgather
	ctxAlltoall
	numCtx
)

var ctxNames = [numCtx]string{
	"p2p", "barrier", "bcast", "reduce", "allreduce", "allgather", "alltoall",
}

// DefaultRendezvousThreshold is the payload size (bytes) at or above
// which the substrate's internal sends prefer ownership transfer over an
// eager copy. 32 KiB keeps small control messages on the cheap eager
// path while large blocks (LET exports, ring segments) cross without a
// memcpy.
const DefaultRendezvousThreshold = 32 << 10

// World is a communicator universe of Size ranks.
type World struct {
	size   int
	fabric *netsim.Fabric // nil = zero-cost network
	comms  []*Comm

	// Deadlock detection, reset per Run (inbox.go): how many ranks are
	// parked in a receive or finished, and the channel closed, with its
	// diagnostic, once no rank can send again.
	mu       sync.Mutex
	parked   int
	finished int
	dead     chan struct{}
	deadDiag string

	// Tracer, when non-nil, records every point-to-point send as a span
	// in the simulated-cluster time domain (obs.PidSim, virtual seconds
	// rendered as microsecond ticks; tid = sending rank). Collectives
	// are built on sends, so their structure emerges in the trace. Set
	// before Run.
	Tracer *obs.Tracer
}

// NewWorld creates a world of size ranks on fabric, which may be nil
// for an untimed (zero-cost) network.
func NewWorld(size int, fabric *netsim.Fabric) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	if fabric != nil {
		if err := fabric.Validate(); err != nil {
			return nil, err
		}
		if cap := fabric.Capacity(); cap > 0 && size > cap {
			return nil, fmt.Errorf("mpi: world size %d exceeds fabric %q capacity %d", size, fabric.Name, cap)
		}
	}
	w := &World{size: size, fabric: fabric}
	w.comms = make([]*Comm, size)
	for r := 0; r < size; r++ {
		w.comms[r] = &Comm{world: w, rank: r}
		w.comms[r].in.wake = make(chan struct{}, 1)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes fn on every rank concurrently and waits for completion.
// Panics are converted to errors so a failing rank cannot take down the
// test harness silently. A deadlock — every rank parked in a receive or
// finished — is detected exactly (inbox.go): each parked rank fails
// with a diagnostic naming every rank's pending receive (peer, tag).
// Run returns the first error in rank order, preferring a rank's own
// error over the deadlock it leaves its peers in, so a failing rank
// surfaces at once instead of stalling the ranks waiting on it.
func (w *World) Run(fn func(c *Comm) error) error {
	w.parked, w.finished = 0, 0
	w.dead, w.deadDiag = make(chan struct{}), ""
	errs := make([]error, w.size)
	for _, c := range w.comms {
		c.in.waitSrc, c.aborted = -1, false
	}
	var wg sync.WaitGroup
	wg.Add(w.size)
	for _, c := range w.comms {
		go func() {
			defer wg.Done()
			defer w.settle(&w.finished)
			defer func() {
				if p := recover(); p != nil {
					errs[c.rank] = fmt.Errorf("mpi: rank %d panicked: %v", c.rank, p)
				}
			}()
			errs[c.rank] = fn(c)
		}()
	}
	wg.Wait()
	var deadErr error
	for r, err := range errs {
		switch {
		case err == nil:
		case !w.comms[r].aborted:
			return err
		case deadErr == nil:
			deadErr = err
		}
	}
	return deadErr
}

// MaxTime returns the parallel makespan: the maximum virtual clock over
// all ranks (call after Run).
func (w *World) MaxTime() float64 {
	m := 0.0
	for _, c := range w.comms {
		if c.now > m {
			m = c.now
		}
	}
	return m
}

// TotalBytes returns the bytes sent across all ranks (call after Run).
func (w *World) TotalBytes() int64 {
	var n int64
	for _, c := range w.comms {
		n += c.bytesSent
	}
	return n
}

// TotalMessages returns messages sent across all ranks (call after Run).
func (w *World) TotalMessages() int64 {
	var n int64
	for _, c := range w.comms {
		n += c.msgsSent
	}
	return n
}

// PoolStats returns the summed buffer-pool hit/miss counts across ranks
// (call after Run). Both are deterministic for a deterministic program.
func (w *World) PoolStats() (hits, misses int64) {
	for _, c := range w.comms {
		hits += c.pool.hits
		misses += c.pool.misses
	}
	return hits, misses
}

// Comm is one rank's endpoint.
type Comm struct {
	world     *World
	rank      int
	now       float64 // virtual time, seconds
	bytesSent int64
	msgsSent  int64

	pool bufPool
	// ctx tags sends with the outermost collective for the per-collective
	// traffic counters; ctxP2P between collectives.
	ctx        int
	bytesByCtx [numCtx]int64
	eagerMsgs  int64
	rdvMsgs    int64

	// in is the rank's receive side; aborted records that the rank
	// failed because the world deadlocked.
	in      inbox
	aborted bool
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Now returns the rank's virtual clock.
func (c *Comm) Now() float64 { return c.now }

// AddCompute advances the virtual clock by modelled computation time.
func (c *Comm) AddCompute(seconds float64) {
	if seconds < 0 {
		panic("mpi: negative compute time")
	}
	c.now += seconds
}

// enterCollective tags subsequent sends with the collective kind; nested
// collectives (allreduce's internal reduce+bcast) keep the outermost
// tag. exitCollective restores the previous context.
func (c *Comm) enterCollective(kind int) int {
	prev := c.ctx
	if prev == ctxP2P {
		c.ctx = kind
	}
	return prev
}

func (c *Comm) exitCollective(prev int) { c.ctx = prev }

// send transmits m to dst, advancing the virtual clocks per the fabric
// model. copied says whether the payload was eagerly copied (false =
// ownership transfer), for the eager/rendezvous counters.
func (c *Comm) send(dst int, m message, copied bool) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", c.rank, dst))
	}
	if dst == c.rank {
		panic("mpi: self-send not supported; use local data")
	}
	start := c.now
	m.sent = start
	if f := c.world.fabric; f != nil {
		// The hop count is rank-pair dependent on the shaped fabrics; on
		// a star this computes exactly the legacy PointToPoint.
		m.arrival = c.now + f.PointToPointRanks(c.rank, dst, m.payloadBytes())
		// The sender's CPU is busy for the software half of the overhead.
		c.now += f.SoftwareOverhead / 2
	} else {
		m.arrival = c.now
	}
	if t := c.world.Tracer; t != nil {
		t.Complete(obs.PidSim, c.rank, "mpi", "send",
			start*1e6, (m.arrival-start)*1e6,
			map[string]any{"dst": dst, "tag": m.tag, "bytes": m.payloadBytes()})
	}
	pb := m.payloadBytes()
	c.bytesSent += int64(pb)
	c.bytesByCtx[c.ctx] += int64(pb)
	c.msgsSent++
	if pb > 0 {
		if copied {
			c.eagerMsgs++
		} else {
			c.rdvMsgs++
		}
	}
	c.world.deliver(c.rank, dst, m)
}

// sendF64 is the typed internal send: owned transfers the buffer
// (rendezvous), otherwise the payload is copied into a pooled buffer
// (eager) and data stays with the caller.
func (c *Comm) sendF64(dst, tag int, data []float64, owned bool) {
	if !owned {
		data = c.pool.copyF64(data)
	}
	c.send(dst, message{tag: tag, f64: data}, !owned)
}

func (c *Comm) sendI64(dst, tag int, data []int64, owned bool) {
	if !owned {
		data = c.pool.copyI64(data)
	}
	c.send(dst, message{tag: tag, i64: data}, !owned)
}

// recv receives the next message from src, which must carry the given
// tag (our codes use deterministic matching), advancing the virtual
// clock to the message's arrival.
func (c *Comm) recv(src, tag int) message {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d receives from invalid rank %d", c.rank, src))
	}
	m := c.take(src, tag)
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag))
	}
	if m.arrival > c.now {
		c.now = m.arrival
	}
	return m
}

// Send transmits float64 data to dst with a tag. The slice is copied
// (into a pooled buffer), so the caller may reuse it immediately.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.sendF64(dst, tag, data, false)
}

// SendOwned transmits float64 data without copying: ownership of the
// slice transfers to the receiver (the rendezvous path). The caller must
// not touch data afterwards. Pair with AcquireF64 on the sending side
// and ReleaseF64 on the receiving side for an allocation-free exchange.
func (c *Comm) SendOwned(dst, tag int, data []float64) {
	c.sendF64(dst, tag, data, true)
}

// Recv receives float64 data from src; the tag must match the next
// message in FIFO order. The returned slice belongs to the caller, who
// may keep it or recycle it with ReleaseF64.
func (c *Comm) Recv(src, tag int) []float64 {
	return c.recv(src, tag).f64
}

// Collect implements obs.Source. The byte/message counters are
// per-world totals, so gathering the worlds of a CPU-count sweep
// accumulates traffic across the sweep; the makespan gauge keeps the
// maximum gathered value. Pool, eager/rendezvous and per-collective byte
// counters are deterministic (per-rank pools, summed in rank order). The
// mpi.bytes.total, mpi.messages.total and mpi.time.max samples are the
// numbers TotalBytes, TotalMessages and MaxTime return. Call after Run.
func (w *World) Collect(s *obs.Snapshot) {
	s.AddCounter("mpi.bytes.total", "bytes", uint64(w.TotalBytes()))
	s.AddCounter("mpi.messages.total", "", uint64(w.TotalMessages()))
	// The parallel makespan: the max rank virtual clock.
	s.MaxGauge("mpi.time.max", "s", w.MaxTime())
	// The world size of the last gathered world.
	s.SetGauge("mpi.ranks", "", float64(w.size))
	var hits, misses, eager, rdv int64
	var byCtx [numCtx]int64
	for _, c := range w.comms {
		hits += c.pool.hits
		misses += c.pool.misses
		eager += c.eagerMsgs
		rdv += c.rdvMsgs
		for k := 0; k < numCtx; k++ {
			byCtx[k] += c.bytesByCtx[k]
		}
	}
	// Payload buffers served from the per-rank pools, and freshly
	// allocated.
	s.AddCounter("mpi.pool.hits", "", uint64(hits))
	s.AddCounter("mpi.pool.misses", "", uint64(misses))
	// Payload messages sent by eager copy, and by ownership transfer.
	s.AddCounter("mpi.msgs.eager", "", uint64(eager))
	s.AddCounter("mpi.msgs.rendezvous", "", uint64(rdv))
	for k := 0; k < numCtx; k++ {
		s.AddCounter("mpi.bytes."+ctxNames[k], "bytes", uint64(byCtx[k]))
	}
}
