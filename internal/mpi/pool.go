package mpi

import "math/bits"

// Buffer pooling for the message-passing hot path. Every payload that
// crosses the wire — the eager copy a Send makes, the accumulator a
// reduction folds into, the staging block a ring collective relays — is
// drawn from a size-classed freelist instead of make(), and returned to
// one when its owner is done. Communication-bound codes whose message
// flow is balanced (allreduce loops, pairwise exchanges, all-to-alls)
// reach an allocation-free steady state after the first iteration; see
// TestAllreduceSteadyStateAllocFree.
//
// Pools are per-Comm, not per-World: each rank's goroutine acquires from
// and releases to its own freelists, so no lock is needed and the
// hit/miss counters are a pure function of the rank's own send/receive
// sequence — deterministic across host scheduling, like every other obs
// counter (the determinism contract in internal/obs). A buffer acquired
// by the sender travels inside the message and is released by whoever
// ends up owning it: internal collective code releases it as soon as the
// payload is folded or copied out, while a payload handed to the caller
// (Recv, the rows AlltoallInts returns) belongs to the caller, who may
// keep it forever or hand it back with ReleaseF64/ReleaseI64.

const (
	// poolClasses bounds the size classes: class k holds buffers with
	// capacity in [2^k, 2^(k+1)). 2^26 elements (512 MiB of float64) is
	// far beyond any payload the codes exchange; larger buffers are not
	// pooled.
	poolClasses = 27
	// poolDepth bounds each class's freelist so a pathological pattern
	// cannot hoard memory; overflowing releases fall to the GC.
	poolDepth = 64
)

// bufPool is one rank's set of freelists. The zero value is ready to
// use.
type bufPool struct {
	f64    [poolClasses][][]float64
	i64    [poolClasses][][]int64
	hits   int64
	misses int64
}

// classFor returns the acquire class for a request of n elements: the
// smallest k with 2^k >= n. Buffers stored in class k have cap >= 2^k,
// so any buffer popped from it satisfies the request.
func classFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// storeClassFor returns the release class for a buffer of capacity c:
// the largest k with 2^k <= c (so acquires from class k always get
// cap >= 2^k). Returns -1 for capacities that are not pooled.
func storeClassFor(c int) int {
	if c < 1 {
		return -1
	}
	k := bits.Len(uint(c)) - 1
	if k >= poolClasses {
		return -1
	}
	return k
}

func (p *bufPool) acquireF64(n int) []float64 {
	if n < 0 {
		panic("mpi: negative buffer size")
	}
	if k := classFor(n); k < poolClasses {
		if l := p.f64[k]; len(l) > 0 {
			buf := l[len(l)-1]
			p.f64[k] = l[:len(l)-1]
			p.hits++
			return buf[:n]
		}
		p.misses++
		return make([]float64, n, 1<<k)
	}
	p.misses++
	return make([]float64, n)
}

func (p *bufPool) releaseF64(buf []float64) {
	if buf == nil {
		return
	}
	k := storeClassFor(cap(buf))
	if k < 0 || len(p.f64[k]) >= poolDepth {
		return
	}
	p.f64[k] = append(p.f64[k], buf[:0])
}

func (p *bufPool) acquireI64(n int) []int64 {
	if n < 0 {
		panic("mpi: negative buffer size")
	}
	if k := classFor(n); k < poolClasses {
		if l := p.i64[k]; len(l) > 0 {
			buf := l[len(l)-1]
			p.i64[k] = l[:len(l)-1]
			p.hits++
			return buf[:n]
		}
		p.misses++
		return make([]int64, n, 1<<k)
	}
	p.misses++
	return make([]int64, n)
}

func (p *bufPool) releaseI64(buf []int64) {
	if buf == nil {
		return
	}
	k := storeClassFor(cap(buf))
	if k < 0 || len(p.i64[k]) >= poolDepth {
		return
	}
	p.i64[k] = append(p.i64[k], buf[:0])
}

// copyF64 acquires a pooled buffer and copies data into it — the eager
// send path.
func (p *bufPool) copyF64(data []float64) []float64 {
	buf := p.acquireF64(len(data))
	copy(buf, data)
	return buf
}

func (p *bufPool) copyI64(data []int64) []int64 {
	buf := p.acquireI64(len(data))
	copy(buf, data)
	return buf
}

// AcquireF64 hands the caller a pooled float64 buffer of length n —
// typically to fill and pass to SendOwned for a copy-free send.
func (c *Comm) AcquireF64(n int) []float64 { return c.pool.acquireF64(n) }

// ReleaseF64 returns a buffer to this rank's pool. The caller must not
// touch the slice afterwards. Releasing foreign slices is allowed (any
// capacity is binned conservatively); releasing the same buffer twice
// is a caller bug the pool cannot detect.
func (c *Comm) ReleaseF64(buf []float64) { c.pool.releaseF64(buf) }

// ReleaseI64 returns an int64 buffer to this rank's pool.
func (c *Comm) ReleaseI64(buf []int64) { c.pool.releaseI64(buf) }
