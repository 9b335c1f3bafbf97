package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// goldenTopperOptHash pins the canonical hash of the default topperopt
// spec — the gateway cache key a bare {"kind":"topperopt"} submission
// resolves to. It must match goldenSpecHashes["topperopt"] in
// internal/core; a change invalidates every cached sweep.
const goldenTopperOptHash = "ae2c646e736982f7a43f3794413ea637a92e863b11bfbc6cb1b557c330290620"

// TestTopperOptRoundTripAndCacheHit runs the design-space optimizer
// through the gateway: submit → done with a schema-valid document,
// resubmit → served from cache bit-identically, spec hash pinned.
func TestTopperOptRoundTripAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"api":"repro/spec/v1","kind":"topperopt"}`

	resp1, env1 := submit(t, ts, "alice", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, error %q", resp1.StatusCode, env1.Error)
	}
	if env1.Cached || env1.Status != "done" || len(env1.Doc) == 0 {
		t.Fatalf("submit: cached=%v status=%q doclen=%d", env1.Cached, env1.Status, len(env1.Doc))
	}
	if env1.SpecHash != goldenTopperOptHash {
		t.Fatalf("default topperopt spec hash %s, golden %s", env1.SpecHash, goldenTopperOptHash)
	}

	// The produced document satisfies the topperopt result contract.
	schemaJSON, err := os.ReadFile(filepath.Join("..", "..", "schema", "topperopt_result_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTopperOptResultJSON(schemaJSON, env1.Doc); err != nil {
		t.Fatalf("gateway document rejected by topperopt schema: %v", err)
	}

	// Resubmission — different field spelling, different tenant — is a
	// cache hit serving the identical bytes: the frontier is
	// deterministic, so the first run's document is the answer.
	resp2, env2 := submit(t, ts, "bob", `{"kind":"topperopt","api":"repro/spec/v1","spec":{}}`)
	if resp2.StatusCode != http.StatusOK || !env2.Cached {
		t.Fatalf("resubmit: status %d cached=%v error=%q", resp2.StatusCode, env2.Cached, env2.Error)
	}
	if !bytes.Equal(env1.Doc, env2.Doc) {
		t.Fatal("cached topperopt doc differs from first run")
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestValidateTopperOptResultJSON corrupts a real gateway document
// against each topperopt-specific rule.
func TestValidateTopperOptResultJSON(t *testing.T) {
	schemaJSON, err := os.ReadFile(filepath.Join("..", "..", "schema", "topperopt_result_v1.json"))
	if err != nil {
		t.Fatal(err)
	}

	// The schema's kind must be a registered spec kind, or CI would be
	// validating documents no gateway can produce.
	var sc TopperOptResultSchema
	if err := json.Unmarshal(schemaJSON, &sc); err != nil {
		t.Fatal(err)
	}
	registered := false
	for _, k := range core.SpecKinds() {
		if k == sc.Kind {
			registered = true
		}
	}
	if !registered {
		t.Fatalf("schema kind %q not in registry %v", sc.Kind, core.SpecKinds())
	}

	s := New(Config{Workers: 1})
	defer s.sched.close()
	spec, err := core.DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"topperopt","spec":{"nodes":[8,64]}}`))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := core.CanonicalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.SpecHash(canon)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.execute(&job{kind: canon.Kind(), hash: hash, spec: canon, done: make(chan struct{})})
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if err := ValidateTopperOptResultJSON(schemaJSON, doc); err != nil {
		t.Fatalf("real document rejected: %v", err)
	}

	cases := map[string][]byte{
		"frontier point missing a field": bytes.Replace(doc, []byte(`"perf_per_watt"`), []byte(`"ppw"`), 1),
		"missing designopt counter":      bytes.Replace(doc, []byte(`"designopt.evaluated"`), []byte(`"designopt.evaluates"`), 1),
		"feasible > candidates":          bytes.Replace(doc, []byte(`"feasible":`), []byte(`"feasible":1000`), 1),
	}
	for name, bad := range cases {
		if bytes.Equal(bad, doc) {
			t.Fatalf("%s: corruption did not change the document", name)
		}
		if err := ValidateTopperOptResultJSON(schemaJSON, bad); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}

	// A non-topperopt document fails the kind pin even though it is a
	// valid generic result.
	tcoSpec, _ := core.DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"tco"}`))
	tcoCanon, _ := core.CanonicalSpec(tcoSpec)
	tcoHash, _ := core.SpecHash(tcoCanon)
	tcoDoc, err := s.execute(&job{kind: "tco", hash: tcoHash, spec: tcoCanon, done: make(chan struct{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTopperOptResultJSON(schemaJSON, tcoDoc); err == nil {
		t.Error("tco document accepted by the topperopt validator")
	}
}
