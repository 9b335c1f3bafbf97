// Command obscheck validates the repository's JSON artifacts against
// their checked-in schema documents. CI uses it to pin four contracts:
// the driver observability snapshot, the experiment-spec envelope, the
// gridd gateway's generic result document, and the topperopt design-
// space result (frontier-point fields plus optimizer counters).
//
//	metablade -obs-json obs.json -particles 4000
//	obscheck obs.json
//	obscheck -mode spec request.json
//	obscheck -mode result result.json
//	obscheck -mode topperopt result.json
//
// Each mode has a default schema under schema/; -schema overrides it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// modes maps -mode to its default schema and validator.
var modes = map[string]struct {
	schema   string
	validate func(schemaJSON, doc []byte) error
}{
	"obs":       {"schema/obs_snapshot_v1.json", obs.ValidateSnapshotJSON},
	"spec":      {"schema/experiment_spec_v1.json", core.ValidateSpecJSON},
	"result":    {"schema/gridd_result_v1.json", serve.ValidateResultJSON},
	"topperopt": {"schema/topperopt_result_v1.json", serve.ValidateTopperOptResultJSON},
}

func main() {
	mode := flag.String("mode", "obs", "artifact type to validate (obs, spec, result, topperopt)")
	schemaPath := flag.String("schema", "", "schema document to validate against (default per -mode)")
	flag.Parse()
	m, ok := modes[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "obscheck: unknown -mode %q (want obs, spec, result or topperopt)\n", *mode)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-mode obs|spec|result|topperopt] [-schema schema.json] artifact.json...")
		os.Exit(2)
	}
	if *schemaPath == "" {
		*schemaPath = m.schema
	}
	schemaJSON, err := os.ReadFile(*schemaPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(1)
	}
	bad := false
	for _, path := range flag.Args() {
		doc, err := os.ReadFile(path)
		if err == nil {
			err = m.validate(schemaJSON, doc)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", path, err)
			bad = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if bad {
		os.Exit(1)
	}
}
