package core

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"
)

// goldenSpecHashes pins the canonical hash of every kind's default
// spec. These are the gateway's cache keys: a change here silently
// invalidates every cached run of that kind, so it must be a conscious
// decision, not a drive-by field reorder.
var goldenSpecHashes = map[string]string{
	"figure3":    "1919661b4d26986f62f1e69f20519b507a0adeecf7caa896678e87ebbc4e5b3f",
	"naskernels": "1bdbe067b237392f404c29b11419f015f88d4af3676f6b12c02c23baf10b2ecc",
	"nassweep":   "02c96ae599d831d70600623289db06a52d82b3ded999609d1e904132f92fff2c",
	"nbody":      "a6cc8f49798e840a16e705be75fb429855ae8a993cd405ae7b194764b6748e1a",
	"spacepower": "0ed461b5913670587a431f06b3308a7958bbb325de29cda90c256552f35d7929",
	"table1":     "5d9f6e93fda98c47790a87260082add902ff5083884bd6f0223bea10b8f67c4a",
	"table2":     "b41d73ca30040c3ea87b0d3e02fd74724c6cb49df8740debc2ae14450a0ac700",
	"table3":     "83c21ab301541437be7a55a9aaa45263a99208f972dd07e8c694bd52b32da2e6",
	"table4":     "2c916658fd61d3eed50fd9dcbe797a24edc2dd5d7163030f710ac534f7b4fe4a",
	"table5":     "2d4e807ae85ea2a69799b1ffd90a5ba6b649c63e3b2521e5543128b93ed91507",
	"tco":        "b35f1e0c677fc46ab51485fd11553394ffd72d81919f1bc79e0606280c735cbf",
	"topper":     "278b1092f854b8082b77dc2b87ed69a293fd84757242091e4973f8975d7d5d15",
	"topperopt":  "ae2c646e736982f7a43f3794413ea637a92e863b11bfbc6cb1b557c330290620",
}

// TestSpecRoundTripEveryKind is the golden round-trip: for every
// registered kind, marshal → unmarshal → canonical hash is stable, the
// decoded spec validates, and the hash matches the pinned golden.
func TestSpecRoundTripEveryKind(t *testing.T) {
	kinds := SpecKinds()
	if len(kinds) != len(goldenSpecHashes) {
		t.Fatalf("registry has %d kinds, goldens cover %d — update goldenSpecHashes", len(kinds), len(goldenSpecHashes))
	}
	for _, kind := range kinds {
		s, err := NewSpec(kind)
		if err != nil {
			t.Fatal(err)
		}
		h1, err := SpecHash(s)
		if err != nil {
			t.Fatalf("%s: hash: %v", kind, err)
		}
		if want := goldenSpecHashes[kind]; h1 != want {
			t.Errorf("%s: hash %s, golden %s", kind, h1, want)
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		h2, err := SpecHash(back)
		if err != nil {
			t.Fatalf("%s: rehash: %v", kind, err)
		}
		if h1 != h2 {
			t.Errorf("%s: round-trip changed the hash: %s → %s", kind, h1, h2)
		}
		c, err := CanonicalSpec(back)
		if err != nil {
			t.Fatalf("%s: canonical: %v", kind, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: canonical default spec invalid: %v", kind, err)
		}
		// Encoding must be deterministic byte-for-byte, not just
		// hash-stable.
		enc2, err := EncodeSpec(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(enc2) {
			t.Errorf("%s: canonical encoding unstable:\n%s\n%s", kind, enc, enc2)
		}
	}
}

// TestSpecHashFieldOrderInvariant: two JSON documents differing only in
// field order decode to specs with identical hashes.
func TestSpecHashFieldOrderInvariant(t *testing.T) {
	a := []byte(`{"api":"repro/spec/v1","kind":"table2","spec":{"particles":9000,"theta":0.8,"fabric":"fattree"}}`)
	b := []byte(`{"kind":"table2","spec":{"fabric":"fattree","theta":0.8,"particles":9000},"api":"repro/spec/v1"}`)
	sa, err := DecodeSpec(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := DecodeSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := SpecHash(sa)
	hb, _ := SpecHash(sb)
	if ha != hb {
		t.Errorf("field order changed the hash: %s vs %s", ha, hb)
	}
}

// TestSpecHashDefaultedFieldsInvariant: a spec with defaults spelled
// out hashes identically to one that omits them.
func TestSpecHashDefaultedFieldsInvariant(t *testing.T) {
	cases := []struct{ kind, sparse, explicit string }{
		{"table2", `{}`, `{"particles":60000,"cpu_counts":[1,2,4,8,16,24],"theta":0.7,"engine":"auto","error_budget":1}`},
		{"figure3", `{"particles":2000}`, `{"particles":2000,"steps":10,"width":72,"height":36,"engine":"auto"}`},
		{"nbody", `{}`, `{"n":20000,"steps":10,"dt":0.005,"theta":0.7,"engine":"auto","error_budget":1}`},
		{"tco", `{}`, `{"nodes":24,"watts":85,"acquisition":17000,"gflops":2.8,"ambient":24,"years":4,"kwh":0.1,"space":100,"cpu_hour":5}`},
		{"naskernels", `{}`, `{"class":"S","rate":true}`},
		{"table3", `{}`, `{"class":"W"}`},
		{"spacepower", `{}`, `{"table6":true,"table7":true}`},
	}
	for _, c := range cases {
		sa, err := DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"` + c.kind + `","spec":` + c.sparse + `}`))
		if err != nil {
			t.Fatalf("%s sparse: %v", c.kind, err)
		}
		sb, err := DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"` + c.kind + `","spec":` + c.explicit + `}`))
		if err != nil {
			t.Fatalf("%s explicit: %v", c.kind, err)
		}
		ha, _ := SpecHash(sa)
		hb, _ := SpecHash(sb)
		if ha != hb {
			ea, _ := EncodeSpec(sa)
			eb, _ := EncodeSpec(sb)
			t.Errorf("%s: defaulted fields changed the hash:\n%s\n%s", c.kind, ea, eb)
		}
	}
}

// TestTCOExplicitZeroHonored: Ambient and KWh are pointer fields, so an
// explicit zero (0°C machine room, free electricity) survives
// canonicalization instead of being silently rewritten to the default —
// and hashes as a different experiment than the defaulted form.
func TestTCOExplicitZeroHonored(t *testing.T) {
	zero := 0.0
	c, err := CanonicalSpec(&TCOSpec{Ambient: &zero, KWh: &zero})
	if err != nil {
		t.Fatal(err)
	}
	ct := c.(*TCOSpec)
	if ct.Ambient == nil || *ct.Ambient != 0 {
		t.Errorf("canonical ambient = %v, want explicit 0", ct.Ambient)
	}
	if ct.KWh == nil || *ct.KWh != 0 {
		t.Errorf("canonical kwh = %v, want explicit 0", ct.KWh)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("explicit zeros rejected: %v", err)
	}
	hz, err := SpecHash(&TCOSpec{Ambient: &zero})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := SpecHash(&TCOSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if hz == hd {
		t.Error("explicit ambient 0 hashes identically to the defaulted spec")
	}
	// A negative rate is still invalid; only zero gained meaning.
	neg := -0.1
	cn, err := CanonicalSpec(&TCOSpec{KWh: &neg})
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Validate(); err == nil {
		t.Error("negative kwh validated")
	}
}

// parseDriver parses args into a Driver on a private flag set and runs
// Setup.
func parseDriver(args ...string) (*Driver, error) {
	d := &Driver{Name: "test"}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return d, d.Setup()
}

// TestRemovedGroupEngineRejected: the group engine and its groupwalk
// alias are gone. Asking for them is an error at every entry point —
// never a silent substitution of the dual engine, whose results would
// then be cached under a request for a different computation.
func TestRemovedGroupEngineRejected(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"nbody","spec":{"n":1000,"engine":"group"}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := CanonicalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error(`"engine":"group" validated`)
	}
	if _, err := DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"table2","spec":{"groupwalk":true}}`)); err == nil {
		t.Error(`"groupwalk":true decoded`)
	}
	if _, err := parseDriver("-engine", "group"); err == nil {
		t.Error("-engine group accepted")
	}
	if _, err := parseDriver("-groupwalk"); err == nil {
		t.Error("-groupwalk accepted")
	}
}

// TestRemovedGearsFlagRejected: the tiered CMS pipeline is gone, and
// with it -gears, which changed simulated cycles without entering any
// spec hash. Passing it is a flag error, not a silent no-op.
func TestRemovedGearsFlagRejected(t *testing.T) {
	for _, args := range [][]string{{"-gears"}, {"-gears=true"}, {"-gears=false"}} {
		if _, err := parseDriver(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// requireUnknownField checks that the strict decoder rejects a spec of
// the given kind carrying field, with an error naming the field.
func requireUnknownField(t *testing.T, kind, field, value string) {
	t.Helper()
	doc := `{"api":"repro/spec/v1","kind":"` + kind + `","spec":{"` + field + `":` + value + `}}`
	_, err := DecodeSpec([]byte(doc))
	if err == nil || !strings.Contains(err.Error(), "unknown field") || !strings.Contains(err.Error(), field) {
		t.Errorf("%s: err = %v, want an unknown-field error naming %q", doc, err, field)
	}
}

// TestRetiredSpellingsRejected: the spec fields that chose only how the
// host ran an experiment (concurrent, workers, no_memo, no_prune) are
// unknown fields to the strict decoder, so none of them folds into
// another spec's hash. The retired aliases have tests of their own:
// TestListAliasEquivalence, TestTreeReuseNormalizesAway and
// TestMPIModeNormalizesAway.
func TestRetiredSpellingsRejected(t *testing.T) {
	for _, tc := range []struct{ kind, field, value string }{
		{"table2", "concurrent", "true"},
		{"table2", "workers", "2"},
		{"nassweep", "concurrent", "true"},
		{"nassweep", "workers", "2"},
		{"topperopt", "workers", "2"},
		{"topperopt", "no_memo", "true"},
		{"topperopt", "no_prune", "true"},
	} {
		requireUnknownField(t, tc.kind, tc.field, tc.value)
	}
}

// TestListAliasEquivalence: "list" once canonicalized to "recursive".
// The alias is retired, so it is no longer equivalent to anything:
// "engine":"list" decodes but fails validation, and -engine list fails
// the driver's Setup.
func TestListAliasEquivalence(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"api":"repro/spec/v1","kind":"nbody","spec":{"engine":"list"}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := CanonicalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err == nil {
		t.Error(`"engine":"list" validated`)
	}
	if _, err := parseDriver("-engine", "list"); err == nil {
		t.Error("-engine list accepted")
	}
}

// TestTreeReuseNormalizesAway: tree_reuse once normalized away to the
// default spec. The field is deleted, so every spelling it used to
// accept is an unknown field to the strict decoder, and -tree-reuse is
// not a flag.
func TestTreeReuseNormalizesAway(t *testing.T) {
	for _, v := range []string{`""`, `"auto"`, `"AUTO"`, `"on"`, `"off"`} {
		requireUnknownField(t, "nbody", "tree_reuse", v)
	}
	if _, err := parseDriver("-tree-reuse", "off"); err == nil {
		t.Error("-tree-reuse accepted")
	}
}

// TestMPIModeNormalizesAway: mpi_mode once normalized away to the
// default spec. The field is deleted, so every spelling it used to
// accept is an unknown field to the strict decoder.
func TestMPIModeNormalizesAway(t *testing.T) {
	for _, kind := range []string{"table2", "nassweep"} {
		for _, v := range []string{`""`, `"auto"`, `"AUTO"`, `"goroutine"`, `"event"`} {
			requireUnknownField(t, kind, "mpi_mode", v)
		}
	}
}

// TestDecodeSpecStrictness: unknown kinds, unknown fields and wrong api
// versions are rejected, not silently dropped.
func TestDecodeSpecStrictness(t *testing.T) {
	cases := []struct{ name, doc, wantErr string }{
		{"unknown kind", `{"api":"repro/spec/v1","kind":"tablex"}`, "unknown experiment kind"},
		{"unknown spec field", `{"api":"repro/spec/v1","kind":"table2","spec":{"particels":100}}`, "unknown field"},
		{"unknown envelope field", `{"api":"repro/spec/v1","kind":"table2","extra":1}`, "unknown field"},
		{"wrong api", `{"api":"repro/spec/v2","kind":"table2"}`, `spec api "repro/spec/v2"`},
		{"not json", `nope`, "bad spec envelope"},
	}
	for _, c := range cases {
		_, err := DecodeSpec([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// TestSpecValidation exercises per-kind validation through RunSpec's
// canonicalize-then-validate path.
func TestSpecValidation(t *testing.T) {
	bad := []ExperimentSpec{
		&Table2Spec{Particles: -1},
		&Table2Spec{CPUCounts: []int{0}},
		&Table2Spec{EngineSpec: EngineSpec{Engine: "warp"}},
		&Table3Spec{Class: "Z"},
		&NASSweepSpec{Ranks: []int{-2}},
		&NASKernelsSpec{Kernel: "XX"},
		&NBodySpec{N: -5},
		&NBodySpec{EngineSpec: EngineSpec{ErrorBudget: -1}},
		&TCOSpec{Nodes: -1},
		&Figure3Spec{Width: -1},
	}
	for _, s := range bad {
		if _, err := RunSpec(NewRun(), s); err == nil {
			t.Errorf("%T %+v: RunSpec accepted an invalid spec", s, s)
		}
	}
}

// TestRunSpecDeterministicText: the tco experiment — pure arithmetic —
// must produce byte-identical text and data on every run. This is the
// property the gateway's cache banks on.
func TestRunSpecDeterministicText(t *testing.T) {
	spec := &TCOSpec{Nodes: 48, Blade: true}
	r1, err := RunSpec(NewRun(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSpec(NewRun(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text {
		t.Errorf("tco text differs between runs:\n%q\n%q", r1.Text, r2.Text)
	}
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if string(j1) != string(j2) {
		t.Errorf("tco result JSON differs between runs")
	}
	if r1.Text == "" || !strings.Contains(r1.Text, "Cluster: 48 nodes") {
		t.Errorf("unexpected tco text: %q", r1.Text)
	}
}

// TestRunSpecDoesNotMutateCaller: RunSpec runs a canonical clone; the
// caller's spec keeps its sparse form.
func TestRunSpecDoesNotMutateCaller(t *testing.T) {
	spec := &TCOSpec{}
	if _, err := RunSpec(NewRun(), spec); err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 0 || spec.Watts != 0 {
		t.Errorf("RunSpec mutated the caller's spec: %+v", spec)
	}
}
