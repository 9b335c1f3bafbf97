package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The tracer records scoped spans and instant events and emits Chrome
// trace_event JSON (the format chrome://tracing and Perfetto load).
// One trace file multiplexes several time domains as separate trace
// "processes":
//
//   - PidHost:   real wall-clock on the host, in microseconds.
//   - PidCMS:    the simulated Crusoe, one VLIW cycle rendered as one
//     microsecond tick.
//   - PidSim:    the simulated cluster's virtual time (mpi rank clocks),
//     one simulated microsecond per microsecond tick; tids are ranks.
//
// Every method is nil-safe: a nil *Tracer no-ops, so subsystems carry
// optional Tracer fields without branching at call sites beyond the
// cheap nil check the methods do themselves.
const (
	PidHost = 1
	PidCMS  = 2
	PidSim  = 3
)

type traceEvent struct {
	name string
	cat  string
	ph   byte // 'X' complete, 'i' instant, 'M' metadata
	pid  int
	tid  int
	ts   float64 // microseconds
	dur  float64 // microseconds, 'X' only
	args map[string]any
}

// Tracer is a thread-safe event-trace recorder.
type Tracer struct {
	mu     sync.Mutex
	clock  func() float64 // microseconds since tracer creation
	events []traceEvent
}

// NewTracer returns a tracer whose wall-clock spans (Begin/End) read
// the host monotonic clock.
func NewTracer() *Tracer {
	start := time.Now()
	return &Tracer{clock: func() float64 {
		return float64(time.Since(start)) / float64(time.Microsecond)
	}}
}

// NewTracerWithClock returns a tracer with a caller-supplied clock
// returning microseconds — deterministic traces for golden tests.
func NewTracerWithClock(clock func() float64) *Tracer {
	return &Tracer{clock: clock}
}

// Now returns the tracer's wall clock in microseconds (0 on nil).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Events returns the number of recorded events (0 on nil).
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

func (t *Tracer) add(e traceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// NameProcess labels a trace process (time domain) in the viewer.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.add(traceEvent{name: "process_name", ph: 'M', pid: pid,
		args: map[string]any{"name": name}})
}

// Complete records a span with explicit timestamps (microseconds) — the
// entry point for simulated time domains, where the caller owns the
// clock (CMS cycle counts, mpi virtual seconds).
func (t *Tracer) Complete(pid, tid int, cat, name string, tsUS, durUS float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(traceEvent{name: name, cat: cat, ph: 'X', pid: pid, tid: tid,
		ts: tsUS, dur: durUS, args: args})
}

// Instant records a point event with an explicit timestamp.
func (t *Tracer) Instant(pid, tid int, cat, name string, tsUS float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(traceEvent{name: name, cat: cat, ph: 'i', pid: pid, tid: tid,
		ts: tsUS, args: args})
}

// Span is an open wall-clock span returned by Begin; End closes it. The
// zero Span (from a nil tracer) no-ops.
type Span struct {
	t    *Tracer
	pid  int
	tid  int
	cat  string
	name string
	ts   float64
}

// Begin opens a wall-clock span on the tracer's own clock.
func (t *Tracer) Begin(pid, tid int, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, pid: pid, tid: tid, cat: cat, name: name, ts: t.clock()}
}

// End closes the span, attaching optional args.
func (sp Span) End(args map[string]any) {
	if sp.t == nil {
		return
	}
	sp.t.Complete(sp.pid, sp.tid, sp.cat, sp.name, sp.ts, sp.t.clock()-sp.ts, args)
}

// WriteJSON emits the trace in Chrome trace_event "JSON object format":
// {"traceEvents":[...],"displayTimeUnit":"ms"}. Metadata events come
// first; the rest keep insertion order. Load the file in
// chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var events []traceEvent
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events...)
		t.mu.Unlock()
	}
	sort.SliceStable(events, func(a, b int) bool {
		return events[a].ph == 'M' && events[b].ph != 'M'
	})
	var b strings.Builder
	b.WriteString("{\"traceEvents\": [")
	for i, e := range events {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		writeTraceEvent(&b, e)
	}
	if len(events) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("], \"displayTimeUnit\": \"ms\"}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeTraceEvent(b *strings.Builder, e traceEvent) {
	b.WriteString("{\"name\": ")
	b.WriteString(quoteJSON(e.name))
	if e.cat != "" {
		b.WriteString(", \"cat\": ")
		b.WriteString(quoteJSON(e.cat))
	}
	b.WriteString(", \"ph\": ")
	b.WriteString(quoteJSON(string(e.ph)))
	b.WriteString(", \"pid\": ")
	b.WriteString(strconv.Itoa(e.pid))
	b.WriteString(", \"tid\": ")
	b.WriteString(strconv.Itoa(e.tid))
	if e.ph != 'M' {
		b.WriteString(", \"ts\": ")
		b.WriteString(strconv.FormatFloat(e.ts, 'f', 3, 64))
	}
	if e.ph == 'X' {
		b.WriteString(", \"dur\": ")
		b.WriteString(strconv.FormatFloat(e.dur, 'f', 3, 64))
	}
	if e.ph == 'i' {
		b.WriteString(", \"s\": \"t\"")
	}
	if len(e.args) > 0 {
		b.WriteString(", \"args\": ")
		keys := make([]string, 0, len(e.args))
		for k := range e.args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteJSON(k))
			b.WriteString(": ")
			v, err := json.Marshal(e.args[k])
			if err != nil {
				v = []byte(`"?"`)
			}
			b.Write(v)
		}
		b.WriteString("}")
	}
	b.WriteString("}")
}
