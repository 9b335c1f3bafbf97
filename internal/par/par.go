// Package par is the host-side shared-memory parallel execution layer:
// a bounded worker pool with deterministic chunked map/reduce helpers.
//
// The repo simulates a 24-blade Beowulf, but the simulator itself runs on
// a real multicore host; this package exploits the real host's cores the
// way Kapanova & Sellier argue commodity hosts should be exploited. It is
// orthogonal to internal/mpi, which models the *simulated* cluster's
// parallelism (see DESIGN.md "Host parallelism vs simulated parallelism").
//
// Determinism contract: chunk boundaries are a pure function of the
// problem size and the caller's grain — never of the worker count or of
// scheduling. Each chunk accumulates into its own storage and reductions
// combine per-chunk results serially in chunk order, so floating-point
// results are bit-identical to a serial run and across any worker count
// (1, 2, 8, GOMAXPROCS, ...). Only wall-clock changes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide worker-pool width; 0 means
// "follow runtime.GOMAXPROCS(0)".
var defaultWorkers atomic.Int64

// Workers returns the process-wide default worker count.
func Workers() int {
	if w := defaultWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the process-wide default worker count (the -procs flag
// of the drivers lands here). n <= 0 restores the GOMAXPROCS default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Pool is a bounded worker pool. The zero value (and Default()) uses the
// process-wide width; New(w) fixes an explicit width. Pools hold no
// resources — goroutines are spawned per operation and bounded by the
// width — so a Pool is freely copyable and safe for concurrent use.
type Pool struct {
	// W is the worker count; 0 means Workers().
	W int
}

// New returns a pool of fixed width w (w <= 0 follows the process-wide
// default, like Default).
func New(w int) *Pool {
	if w < 0 {
		w = 0
	}
	return &Pool{W: w}
}

// Default returns a pool that follows the process-wide width.
func Default() *Pool { return &Pool{} }

func (p *Pool) width() int {
	if p != nil && p.W > 0 {
		return p.W
	}
	return Workers()
}

// Width returns the effective worker count the pool's operations use —
// what callers size per-worker scratch (walk arenas, buffers) to.
func (p *Pool) Width() int { return p.width() }

// NumChunks returns the number of fixed-size chunks [0,n) splits into at
// the given grain (chunk size). grain <= 0 defaults to 1024. The result
// depends only on n and grain — the determinism contract's foundation.
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	g := normGrain(grain)
	return (n + g - 1) / g
}

// ChunkBounds returns chunk c's half-open index range [lo,hi).
func ChunkBounds(n, grain, c int) (lo, hi int) {
	g := normGrain(grain)
	lo = c * g
	hi = lo + g
	if hi > n {
		hi = n
	}
	return lo, hi
}

func normGrain(grain int) int {
	if grain <= 0 {
		return 1024
	}
	return grain
}

// ForChunks runs fn once per chunk of [0,n), passing the chunk index and
// its bounds. Chunks are claimed dynamically by up to width workers, so
// fn must only touch chunk-local or per-index state; the chunk index c
// lets fn address a per-chunk accumulator slot.
func (p *Pool) ForChunks(n, grain int, fn func(c, lo, hi int)) {
	p.ForChunksWorker(n, grain, func(_, c, lo, hi int) { fn(c, lo, hi) })
}

// ForChunksWorker is ForChunks with a stable worker index: fn
// additionally receives the identity of the worker running the chunk
// (0 ≤ worker < min(Width, chunks)), so callers can hand each worker
// exclusive reusable scratch (a walk arena) without allocating per
// chunk. Which worker runs which chunk is scheduling-dependent; results
// must depend only on the chunk, never on the worker index — scratch
// reset per chunk keeps the determinism contract intact. It holds the
// package's one chunk-claiming loop.
func (p *Pool) ForChunksWorker(n, grain int, fn func(worker, c, lo, hi int)) {
	nc := NumChunks(n, grain)
	if nc == 0 {
		return
	}
	w := p.width()
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for c := 0; c < nc; c++ {
			lo, hi := ChunkBounds(n, grain, c)
			fn(0, c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo, hi := ChunkBounds(n, grain, c)
				fn(worker, c, lo, hi)
			}
		}(i)
	}
	wg.Wait()
}

// For runs fn over [0,n) in chunks, for loops whose iterations write
// disjoint per-index outputs and share no accumulator.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	p.ForChunks(n, grain, func(_, lo, hi int) { fn(lo, hi) })
}

// Do runs the given tasks concurrently, at most width at a time, and
// waits for all of them (the heterogeneous-task companion of For — e.g.
// core's sweeps of independent simulated worlds): one chunk of grain 1
// per task.
func (p *Pool) Do(tasks ...func()) {
	p.ForChunksWorker(len(tasks), 1, func(_, c, _, _ int) { tasks[c]() })
}
