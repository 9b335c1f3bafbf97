package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/obs"
)

// spanStat is the time a group of host spans took, in microseconds.
type spanStat struct {
	Count       int
	Total, Self float64
}

type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

var rankSuffix = regexp.MustCompile(`^(p|step)\d+$`)

// spanKey groups spans by category and name, folding per-rank-count and
// per-step names ("p8", "step3") into one group ("p*", "step*").
func spanKey(cat, name string) string {
	if m := rankSuffix.FindStringSubmatch(name); m != nil {
		name = m[1] + "*"
	}
	return cat + "/" + name
}

// writeTrace writes the tracer's spans as one Chrome trace file under
// dir and returns the host-clock span statistics: each span's self time
// is its duration minus the part of it that spans nested inside it, on
// the same thread, cover.
func writeTrace(tr *obs.Tracer, dir, file string) (map[string]*spanStat, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	return hostSpanStats(doc.TraceEvents), nil
}

// hostSpanStats computes total and self time per span group for the
// complete events of the host wall-clock domain.
func hostSpanStats(events []traceEvent) map[string]*spanStat {
	var host []traceEvent
	for _, e := range events {
		if e.Ph == "X" && e.Pid == obs.PidHost {
			host = append(host, e)
		}
	}
	sort.SliceStable(host, func(a, b int) bool {
		if host[a].Tid != host[b].Tid {
			return host[a].Tid < host[b].Tid
		}
		if host[a].Ts != host[b].Ts {
			return host[a].Ts < host[b].Ts
		}
		return host[a].Dur > host[b].Dur
	})
	child := make([]float64, len(host))
	var stack []int
	for i, e := range host {
		for len(stack) > 0 {
			top := host[stack[len(stack)-1]]
			if top.Tid == e.Tid && top.Ts+top.Dur > e.Ts {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += e.Dur
		}
		stack = append(stack, i)
	}
	out := map[string]*spanStat{}
	for i, e := range host {
		k := spanKey(e.Cat, e.Name)
		st := out[k]
		if st == nil {
			st = &spanStat{}
			out[k] = st
		}
		st.Count++
		st.Total += e.Dur
		st.Self += max(e.Dur-child[i], 0)
	}
	return out
}

// sumSpans adds the total (or self) microseconds of the span group
// key, or of every group under it when key ends in "/".
func sumSpans(stats map[string]*spanStat, key string, self bool) float64 {
	var t float64
	for k, st := range stats {
		if k != key && !(strings.HasSuffix(key, "/") && strings.HasPrefix(k, key)) {
			continue
		}
		if self {
			t += st.Self
		} else {
			t += st.Total
		}
	}
	return t
}

// printSpans prints each span group's per-op total and self time.
func printSpans(stats map[string]*spanStat, ops int) {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("  %-40s %8s %14s %14s\n", "span (host clock)", "count", "total ms/op", "self ms/op")
	for _, k := range keys {
		st := stats[k]
		fmt.Printf("  %-40s %8d %14.3f %14.3f\n", k, st.Count, st.Total/1e3/float64(ops), st.Self/1e3/float64(ops))
	}
}
