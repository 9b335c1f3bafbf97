package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func readSpecSchema(t *testing.T) []byte {
	t.Helper()
	schemaJSON, err := os.ReadFile(filepath.Join("..", "..", "schema", "experiment_spec_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	return schemaJSON
}

// TestSpecSchemaMatchesRegistry pins the checked-in schema to the
// compiled registry: adding or renaming an experiment kind must update
// schema/experiment_spec_v1.json in the same change.
func TestSpecSchemaMatchesRegistry(t *testing.T) {
	var sc SpecSchema
	if err := json.Unmarshal(readSpecSchema(t), &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Schema != SpecAPI {
		t.Errorf("schema tag %q, want %q", sc.Schema, SpecAPI)
	}
	if !reflect.DeepEqual(sc.Kinds, SpecKinds()) {
		t.Errorf("schema kinds %v\nregistry    %v", sc.Kinds, SpecKinds())
	}
}

func TestValidateSpecJSON(t *testing.T) {
	schemaJSON := readSpecSchema(t)
	good := [][]byte{
		[]byte(`{"api":"repro/spec/v1","kind":"table1"}`),
		[]byte(`{"api":"repro/spec/v1","kind":"tco","spec":{"blade":true}}`),
		[]byte(`{"api":"repro/spec/v1","kind":"nbody","spec":{"n":1000,"rungs":2}}`),
	}
	for _, doc := range good {
		if err := ValidateSpecJSON(schemaJSON, doc); err != nil {
			t.Errorf("%s: %v", doc, err)
		}
	}
	bad := [][]byte{
		[]byte(`{"api":"repro/spec/v1","kind":"nope"}`),
		[]byte(`{"api":"repro/spec/v2","kind":"table1"}`),
		[]byte(`{"api":"repro/spec/v1","kind":"tco","spec":{"bogus":1}}`),
		[]byte(`{"api":"repro/spec/v1","kind":"nbody","spec":{"n":1000,"engine":"dual"}}`),
		[]byte(`{"api":"repro/spec/v1","kind":"tco","spec":{"nodes":-1}}`),
		[]byte(`not json`),
	}
	for _, doc := range bad {
		if err := ValidateSpecJSON(schemaJSON, doc); err == nil {
			t.Errorf("%s: accepted, want error", doc)
		}
	}
	// A schema that silently drops a kind must reject that kind even
	// though the registry knows it.
	narrow := []byte(`{"schema":"repro/spec/v1","kinds":["table1"]}`)
	if err := ValidateSpecJSON(narrow, []byte(`{"api":"repro/spec/v1","kind":"tco"}`)); err == nil {
		t.Error("kind outside schema list accepted")
	}
}
