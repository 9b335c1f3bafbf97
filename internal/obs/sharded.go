package obs

import (
	"sync"
	"sync/atomic"
)

// Sharded counters are the hot-loop instrumentation primitive: one
// cache-line-padded slot per chunk of an internal/par loop, written
// without atomics or locks (each chunk owns its slot), merged by summing
// slots in slot order. Because par's chunk count is a pure function of
// the problem size and grain — never of the worker count — the merged
// value is bit-identical at any worker width.

// shardPad keeps adjacent slots on separate cache lines so concurrent
// workers do not false-share.
const shardPad = 64

type counterSlot struct {
	n uint64
	_ [shardPad - 8]byte
}

// ShardedCounter is a monotonic counter split into independently
// written slots. Slot i may only be written by the owner of chunk i (or
// worker i); Value merges in slot order.
type ShardedCounter struct {
	slots []counterSlot
}

// NewShardedCounter returns a counter with the given number of slots
// (one per par chunk or worker; min 1).
func NewShardedCounter(shards int) *ShardedCounter {
	if shards < 1 {
		shards = 1
	}
	return &ShardedCounter{slots: make([]counterSlot, shards)}
}

// Add adds n to the shard's slot. Not atomic: exactly one goroutine may
// own a shard at a time (par's chunk ownership guarantees this).
func (c *ShardedCounter) Add(shard int, n uint64) { c.slots[shard].n += n }

// Value merges the slots in slot order. Call after the parallel section
// completes (it does not synchronize with writers).
func (c *ShardedCounter) Value() uint64 {
	var v uint64
	for i := range c.slots {
		v += c.slots[i].n
	}
	return v
}

// Counter is a process-wide atomic counter registered in a Registry —
// for telemetry shared across goroutines without chunk ownership (the
// cpu calibration memo's hits/misses). Integer atomic adds commute, so
// Counters stay deterministic wherever the counted events are.
type Counter struct {
	m Metric
	v atomic.Uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (tests and ablations).
func (c *Counter) Reset() { c.v.Store(0) }

// Registry is a named set of live Counters that implements Source:
// Collect overwrites (the registry holds the authoritative process-wide
// values). Subsystem telemetry that used to live in ad-hoc package vars
// becomes a view over a Registry.
type Registry struct {
	mu       sync.Mutex
	order    []*Counter
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, unit string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{m: Metric{Name: name, Kind: KindCounter, Unit: unit}}
	r.counters[name] = c
	r.order = append(r.order, c)
	return c
}

// Collect implements Source, overwriting each counter with its live
// value, in registration order.
func (r *Registry) Collect(s *Snapshot) {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.order...)
	r.mu.Unlock()
	for _, c := range counters {
		s.SetCounter(c.m.Name, c.m.Unit, c.Value())
	}
}
