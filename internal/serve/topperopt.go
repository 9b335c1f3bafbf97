package serve

import (
	"encoding/json"
	"fmt"
)

// TopperOptResultSchema is the checked-in contract a topperopt gateway
// result must satisfy (schema/topperopt_result_v1.json): everything the
// generic result schema requires, plus the kind pin, the fields every
// frontier point must carry, and the optimizer counters the obs payload
// must expose.
type TopperOptResultSchema struct {
	ResultSchema
	Kind                string   `json:"kind"`
	RequiredPointFields []string `json:"required_point_fields"`
	RequiredCounters    []string `json:"required_counters"`
}

// ValidateTopperOptResultJSON layers the topperopt contract on top of
// ValidateResultJSON: the document must be a valid gateway result of
// kind "topperopt", its payload must be a well-formed frontier whose
// points all carry the schema's required fields with the search
// telemetry self-consistent, and its obs snapshot must contain the
// designopt counters.
func ValidateTopperOptResultJSON(schemaJSON, doc []byte) error {
	var sc TopperOptResultSchema
	if err := json.Unmarshal(schemaJSON, &sc); err != nil {
		return fmt.Errorf("serve: bad topperopt schema document: %w", err)
	}
	if sc.Kind == "" || len(sc.RequiredPointFields) == 0 || len(sc.RequiredCounters) == 0 {
		return fmt.Errorf("serve: topperopt schema document missing kind/required_point_fields/required_counters")
	}
	if err := ValidateResultJSON(schemaJSON, doc); err != nil {
		return err
	}

	var rd struct {
		Kind   string `json:"kind"`
		Result struct {
			Data struct {
				Candidates int                          `json:"candidates"`
				Feasible   int                          `json:"feasible"`
				Frontier   []map[string]json.RawMessage `json:"frontier"`
			} `json:"data"`
		} `json:"result"`
		Obs struct {
			Samples []struct {
				Name string `json:"name"`
			} `json:"samples"`
		} `json:"obs"`
	}
	if err := json.Unmarshal(doc, &rd); err != nil {
		return fmt.Errorf("serve: topperopt result document: %w", err)
	}
	if rd.Kind != sc.Kind {
		return fmt.Errorf("serve: result kind %q, want %q", rd.Kind, sc.Kind)
	}
	d := &rd.Result.Data
	if d.Feasible > d.Candidates {
		return fmt.Errorf("serve: topperopt telemetry inconsistent: %d feasible of %d candidates",
			d.Feasible, d.Candidates)
	}
	if len(d.Frontier) == 0 {
		// An empty frontier is legal only when nothing was feasible
		// (e.g. an impossible budget); a feasible sweep must surface at
		// least one non-dominated design.
		if d.Feasible > 0 {
			return fmt.Errorf("serve: topperopt result has %d feasible designs but an empty frontier", d.Feasible)
		}
	}
	for i, pt := range d.Frontier {
		for _, field := range sc.RequiredPointFields {
			if _, ok := pt[field]; !ok {
				return fmt.Errorf("serve: frontier point %d missing field %q", i, field)
			}
		}
	}
	have := make(map[string]bool, len(rd.Obs.Samples))
	for _, s := range rd.Obs.Samples {
		have[s.Name] = true
	}
	for _, c := range sc.RequiredCounters {
		if !have[c] {
			return fmt.Errorf("serve: obs payload missing counter %q", c)
		}
	}
	return nil
}
