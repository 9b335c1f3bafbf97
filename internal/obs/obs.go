// Package obs is the unified observability layer: one instrumentation
// vocabulary (named counters, timers and gauges), one machine-readable
// snapshot format, and one event-trace recorder shared by every
// simulator in the repo (CMS/VLIW, mpi/netsim, the treecode) and every
// cmd/ driver.
//
// The paper's argument rests on measured numbers — per-benchmark Mflops,
// NPB Mop/s, treecode interaction counts, TCO/ToPPeR — and before this
// package each subsystem reported them through an ad-hoc struct while
// the drivers printed hand-rolled text. obs gives every run a common
// export path: subsystems implement Source (one method, Collect, which
// writes name, kind, unit and value into a Snapshot), drivers gather
// Sources into a Snapshot, and the Snapshot serializes to JSON, CSV or a
// text table. A metric is declared where Collect writes it; there is no
// separate metric list and no help text. The trace recorder emits Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto.
//
// Determinism contract: counters are exact integers, and integer sums
// commute, so a count gathered from per-worker partials or from
// concurrent atomic adds is the same whatever the interleaving — every
// exported counter is bit-identical across host worker widths
// 1, 2, 8, GOMAXPROCS, ... Wall-clock timers are the one exception: they
// measure the host, and only they may vary between runs.
package obs

import "strings"

// Kind classifies a metric.
type Kind uint8

const (
	// KindCounter is a monotonic uint64 event count (instructions,
	// interactions, bytes). Counters are exact integers and must be
	// bit-identical across host worker widths.
	KindCounter Kind = iota
	// KindTimer is an accumulated duration in seconds. Wall-clock timers
	// vary run to run; virtual-time timers (simulated seconds) are
	// deterministic.
	KindTimer
	// KindGauge is a point-in-time float64 measurement (Mflops, cache
	// occupancy, ratios).
	KindGauge
)

// String returns the JSON/CSV spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindTimer:
		return "timer"
	case KindGauge:
		return "gauge"
	}
	return "unknown"
}

// Metric describes one named measurement.
type Metric struct {
	// Name is the stable machine-readable identifier, lowercase
	// dot-separated ("cms.cycles.total"). Renaming a metric is an API
	// break caught by the schema check in CI.
	Name string
	Kind Kind
	// Unit is the value's unit ("cycles", "bytes", "s", "Mflops"); empty
	// for dimensionless counts.
	Unit string
}

// Source is the one interface through which every subsystem exports its
// telemetry: cms machines and stats, mpi worlds, treecode results, the
// gridd server and the process-wide registries (the cpu calibration
// memo, the treecode walk counters) all implement it.
type Source interface {
	// Collect writes current values into the snapshot. Sources with
	// per-run delta semantics accumulate (AddCounter/AddTimer); live
	// cumulative sources overwrite (SetCounter/SetGauge).
	Collect(s *Snapshot)
}

// SanitizeName converts free text (a processor or kernel name) into a
// metric-name segment: lowercase, with every run of non-alphanumeric
// characters collapsed to a single underscore.
func SanitizeName(s string) string {
	var b strings.Builder
	underscore := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			if underscore && b.Len() > 0 {
				b.WriteByte('_')
			}
			underscore = false
			b.WriteRune(r)
		default:
			underscore = true
		}
	}
	return b.String()
}
