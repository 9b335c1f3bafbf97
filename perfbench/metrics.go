package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// benchFile is the benchmark's definition, read from the directory the
// benchmark runs in: the repository root.
const benchFile = "BENCHMARK.json"

// loadDefs reads the end-to-end metrics, which every untraced run
// prints, and the per-layer metrics, which every traced run prints,
// from the benchmark's definition. WORKLOADS.md says which workloads
// measure each one.
func loadDefs(path string) (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bench.EndToEnd) == 0 || len(bench.PerLayer) == 0 {
		return nil, nil, fmt.Errorf("%s names no end-to-end or no per-layer metric", path)
	}
	if err := checkDefs(bench.EndToEnd, bench.PerLayer); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return bench.EndToEnd, bench.PerLayer, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkDefs reports a malformed or repeated metric name.
func checkDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, set := range defs {
		for _, d := range set {
			if !nameRE.MatchString(d.Name) {
				return fmt.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if seen[d.Name] {
				return fmt.Errorf("metric %q defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for defs from measured values. An
// end-to-end metric must be measured. The result format carries every
// per-layer metric in every traced run, so one the workload does not
// measure reads 0; the printed report marks it as not measured.
func fill(defs []metricDef, got map[string]float64, required bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := got[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("measured %q, which is not a metric of this run", name)
		}
	}
	return out, nil
}
