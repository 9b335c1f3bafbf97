package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// SchemaVersion identifies the snapshot JSON envelope layout; bumped
// only on incompatible changes.
const SchemaVersion = "repro/obs/v1"

// Sample is one metric with its value. Counters carry Int; timers and
// gauges carry Float.
type Sample struct {
	Metric
	Int   uint64
	Float float64
}

// Number renders the value canonically: counters as exact decimal
// integers, floats in shortest round-trip form. This is the one place
// snapshot values become text, so JSON, CSV and tables always agree.
func (s Sample) Number() string {
	if s.Kind == KindCounter {
		return strconv.FormatUint(s.Int, 10)
	}
	return strconv.FormatFloat(s.Float, 'g', -1, 64)
}

// Snapshot is an ordered set of samples plus run metadata. The zero
// value is not usable; call NewSnapshot. A Snapshot may be shared across
// goroutines (every mutation takes an internal lock), but deterministic
// output requires callers to gather in a deterministic order — the
// drivers gather from a single goroutine.
type Snapshot struct {
	mu      sync.Mutex
	meta    map[string]string
	index   map[string]int
	samples []Sample
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{meta: map[string]string{}, index: map[string]int{}}
}

// SetMeta records a key/value pair of run metadata (driver name,
// arguments, config). Metadata is exported but never merged.
func (s *Snapshot) SetMeta(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta[key] = value
}

// Meta returns a copy of the metadata map.
func (s *Snapshot) Meta() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.meta))
	for k, v := range s.meta {
		out[k] = v
	}
	return out
}

// upsert applies fn to the existing sample for the metric, inserting a
// zero-valued one first if absent. The first writer fixes the metric's
// kind and unit.
func (s *Snapshot) upsert(m Metric, fn func(*Sample)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[m.Name]
	if !ok {
		i = len(s.samples)
		s.index[m.Name] = i
		s.samples = append(s.samples, Sample{Metric: m})
	}
	fn(&s.samples[i])
}

// AddCounter accumulates v into a counter (delta semantics: gathering
// the same source across a sweep sums its contributions).
func (s *Snapshot) AddCounter(name, unit string, v uint64) {
	s.upsert(Metric{Name: name, Kind: KindCounter, Unit: unit},
		func(sm *Sample) { sm.Int += v })
}

// SetCounter overwrites a counter (live cumulative semantics: the
// source already holds the process-wide total).
func (s *Snapshot) SetCounter(name, unit string, v uint64) {
	s.upsert(Metric{Name: name, Kind: KindCounter, Unit: unit},
		func(sm *Sample) { sm.Int = v })
}

// AddTimer accumulates seconds into a timer.
func (s *Snapshot) AddTimer(name string, seconds float64) {
	s.upsert(Metric{Name: name, Kind: KindTimer, Unit: "s"},
		func(sm *Sample) { sm.Float += seconds })
}

// SetGauge overwrites a gauge.
func (s *Snapshot) SetGauge(name, unit string, v float64) {
	s.upsert(Metric{Name: name, Kind: KindGauge, Unit: unit},
		func(sm *Sample) { sm.Float = v })
}

// MaxGauge keeps the maximum of the gathered values — makespans
// (mpi.time.max) across a sweep of world sizes.
func (s *Snapshot) MaxGauge(name, unit string, v float64) {
	s.upsert(Metric{Name: name, Kind: KindGauge, Unit: unit},
		func(sm *Sample) {
			if v > sm.Float {
				sm.Float = v
			}
		})
}

// Lookup returns the sample with the given name.
func (s *Snapshot) Lookup(name string) (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[name]
	if !ok {
		return Sample{}, false
	}
	return s.samples[i], true
}

// Counter returns the integer value of a counter sample (0 if absent).
func (s *Snapshot) Counter(name string) uint64 {
	sm, _ := s.Lookup(name)
	return sm.Int
}

// Samples returns the samples sorted by name — the canonical,
// machine-diffable order every exporter uses.
func (s *Snapshot) Samples() []Sample {
	s.mu.Lock()
	out := append([]Sample(nil), s.samples...)
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Len returns the number of samples.
func (s *Snapshot) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Gather collects every source into the snapshot, in argument order.
func (s *Snapshot) Gather(sources ...Source) {
	for _, src := range sources {
		if src != nil {
			src.Collect(s)
		}
	}
}

// WriteJSON writes the snapshot envelope:
//
//	{"schema":"repro/obs/v1","meta":{...},"samples":[{"name":...,"kind":...,"unit":...,"value":...},...]}
//
// Samples are sorted by name; counters serialize as exact integers, so
// two runs diff cleanly. Non-finite floats serialize as null.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{\n  \"schema\": ")
	b.WriteString(quoteJSON(SchemaVersion))
	b.WriteString(",\n  \"meta\": {")
	meta := s.Meta()
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n    ")
		b.WriteString(quoteJSON(k))
		b.WriteString(": ")
		b.WriteString(quoteJSON(meta[k]))
	}
	if len(keys) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("},\n  \"samples\": [")
	for i, sm := range s.Samples() {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n    {\"name\": ")
		b.WriteString(quoteJSON(sm.Name))
		b.WriteString(", \"kind\": ")
		b.WriteString(quoteJSON(sm.Kind.String()))
		b.WriteString(", \"unit\": ")
		b.WriteString(quoteJSON(sm.Unit))
		b.WriteString(", \"value\": ")
		b.WriteString(jsonNumber(sm))
		b.WriteString("}")
	}
	if s.Len() > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func jsonNumber(sm Sample) string {
	if sm.Kind != KindCounter && (math.IsNaN(sm.Float) || math.IsInf(sm.Float, 0)) {
		return "null"
	}
	return sm.Number()
}

func quoteJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // strings cannot fail to marshal
		return `""`
	}
	return string(b)
}

// WriteCSV writes "name,kind,unit,value" rows sorted by name, with a
// header line.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("name,kind,unit,value\n")
	for _, sm := range s.Samples() {
		b.WriteString(csvField(sm.Name))
		b.WriteByte(',')
		b.WriteString(sm.Kind.String())
		b.WriteByte(',')
		b.WriteString(csvField(sm.Unit))
		b.WriteByte(',')
		b.WriteString(sm.Number())
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Table renders the snapshot (or, with prefixes, the matching subset)
// as an aligned text table — the adapter the drivers use instead of
// constructing metrics.Table cell by cell.
func (s *Snapshot) Table(title string, prefixes ...string) *metrics.Table {
	t := metrics.NewTable(title, "Metric", "Value", "Unit")
	for _, sm := range s.Samples() {
		if len(prefixes) > 0 {
			keep := false
			for _, p := range prefixes {
				if strings.HasPrefix(sm.Name, p) {
					keep = true
					break
				}
			}
			if !keep {
				continue
			}
		}
		t.AddRow(sm.Name, sm.Number(), sm.Unit)
	}
	return t
}

// String renders the full snapshot as a table (for debugging).
func (s *Snapshot) String() string {
	return s.Table("obs snapshot").String()
}
