package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a process-wide atomic counter registered in a Registry —
// for telemetry shared across goroutines (the cpu calibration memo's
// hits/misses). Integer atomic adds commute, so
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
