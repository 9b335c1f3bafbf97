package mpi

import (
	"fmt"
	"sync"
)

// Point-to-point delivery. Each rank owns one inbox holding a FIFO lane
// per sender, created on that sender's first message, so a world costs
// memory in proportion to the rank pairs that actually talk rather than
// size². A send appends to the receiver's lane and never blocks. A
// receive whose lane is empty records the sender it wants and parks on
// the inbox's wake channel until that sender delivers.
//
// Deadlock detection is exact, with no timer. The world counts parked
// and finished ranks under one mutex, and a sender unparks the rank it
// wakes before that rank runs again, so the count never includes a rank
// with a message on its way. Once every rank is parked or finished and
// at least one is parked, no send can ever happen again: the rank that
// completes the count closes the world's dead channel, and every parked
// rank panics with the per-rank diagnostic, which Run returns as an
// error.

// msgQueue is one (src → dst) FIFO lane: a deque with a head index,
// recycled in place when drained so steady-state traffic allocates
// nothing.
type msgQueue struct {
	buf  []message
	head int
}

func (q *msgQueue) push(m message) { q.buf = append(q.buf, m) }

// pop takes the oldest message; a nil lane is empty.
func (q *msgQueue) pop() (message, bool) {
	if q == nil || q.head >= len(q.buf) {
		return message{}, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop payload references
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m, true
}

// inbox is one rank's receive side.
type inbox struct {
	mu      sync.Mutex
	lanes   map[int]*msgQueue // by sender, created on first message
	waitSrc int               // sender a parked recv waits on; -1 = none
	waitTag int
	wake    chan struct{} // cap 1: the awaited sender delivered
}

// deliver appends m to dst's lane from src and, if dst is parked
// waiting on exactly this sender, unparks and wakes it.
func (w *World) deliver(src, dst int, m message) {
	in := &w.comms[dst].in
	in.mu.Lock()
	q := in.lanes[src]
	if q == nil {
		if in.lanes == nil {
			in.lanes = make(map[int]*msgQueue)
		}
		q = &msgQueue{}
		in.lanes[src] = q
	}
	q.push(m)
	if in.waitSrc == src {
		in.waitSrc = -1
		w.mu.Lock()
		w.parked--
		w.mu.Unlock()
		in.wake <- struct{}{}
	}
	in.mu.Unlock()
}

// take pops the next message from src into this rank, parking until
// that sender delivers. It panics with the world diagnostic if the
// world deadlocks while it waits.
func (c *Comm) take(src, tag int) message {
	in := &c.in
	in.mu.Lock()
	m, ok := in.lanes[src].pop()
	if ok {
		in.mu.Unlock()
		return m
	}
	in.waitSrc, in.waitTag = src, tag
	c.world.settle(&c.world.parked)
	in.mu.Unlock()
	select {
	case <-in.wake:
	case <-c.world.dead:
		c.aborted = true
		panic(fmt.Sprintf("mpi: deadlock: rank %d blocked in recv(src=%d, tag=%d) with every other rank blocked or finished; world state: %s",
			c.rank, src, tag, c.world.deadDiag))
	}
	in.mu.Lock()
	m, _ = in.lanes[src].pop()
	in.mu.Unlock()
	return m
}

// settle counts one more rank as parked or finished (n is the counter)
// and, if that leaves no rank able to send, declares the deadlock.
func (w *World) settle(n *int) {
	w.mu.Lock()
	*n++
	if w.parked > 0 && w.parked+w.finished == w.size && w.deadDiag == "" {
		w.deadDiag = w.describeRanks()
		close(w.dead)
	}
	w.mu.Unlock()
}

// describeRanks renders every rank's state for the deadlock
// diagnostic. It runs only once every rank is parked or finished, so
// no inbox changes underneath it.
func (w *World) describeRanks() string {
	var b []byte
	for r, c := range w.comms {
		if r > 0 {
			b = append(b, "; "...)
		}
		if c.in.waitSrc >= 0 {
			b = fmt.Appendf(b, "rank %d: blocked in recv(src=%d, tag=%d)", r, c.in.waitSrc, c.in.waitTag)
		} else {
			b = fmt.Appendf(b, "rank %d: finished", r)
		}
	}
	return string(b)
}
