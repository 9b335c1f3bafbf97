package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// The unified experiment API: every experiment the repository can run —
// the paper's tables and figure, the NAS rank sweeps, the TCO/ToPPeR
// queries, free-form N-body scenarios — is described by an
// ExperimentSpec. A spec is a plain JSON-marshalable value registered
// under a kind string; it validates itself, normalizes its defaulted
// fields, and executes against a Run. The CLI drivers and the gridd
// HTTP gateway are two thin frontends over this one API: flags parse
// into specs, HTTP bodies decode into specs, and both hand them to
// RunSpec.
//
// Specs are canonically hashable. CanonicalSpec clones a spec through
// its JSON form and normalizes it, so two specs that differ only in
// JSON field order, in defaulted-versus-omitted fields, or in an
// alias with identical results (Engine "list" versus "recursive")
// canonicalize to the same value — and SpecHash, the SHA-256 of the
// canonical envelope, is the cache key the gateway uses to serve
// repeated submissions of a deterministic experiment for free.

// SpecAPI is the version string of the experiment-spec envelope.
const SpecAPI = "repro/spec/v1"

// ExperimentSpec is one runnable experiment description.
type ExperimentSpec interface {
	// Kind returns the registry name of the experiment ("table1",
	// "nbody", "tco", ...).
	Kind() string
	// Normalize fills defaulted fields in place and folds deprecated
	// aliases, so canonical forms compare and hash identically.
	Normalize()
	// Validate reports whether the (normalized) spec is runnable.
	Validate() error
	// Run executes the experiment, recording metrics and trace spans
	// into the Run, and returns the result.
	Run(r *Run) (*SpecResult, error)
}

// SpecResult is the outcome of one spec execution: the exact text a CLI
// driver prints, plus structured rows for JSON consumers.
type SpecResult struct {
	// Kind echoes the spec's kind.
	Kind string `json:"kind"`
	// Text is the human-readable rendering — byte-identical to what
	// the pre-spec CLI drivers printed.
	Text string `json:"text"`
	// Data carries the experiment's structured rows, when it has any.
	Data any `json:"data,omitempty"`
	// Extra carries host-side artifacts (e.g. the *nbody.System behind
	// a rendering) that never serialize.
	Extra any `json:"-"`
}

// SpecEnvelope is the wire form of a spec: a versioned, kind-tagged
// wrapper around the spec's own JSON body.
type SpecEnvelope struct {
	API  string          `json:"api"`
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec,omitempty"`
}

// specRegistry maps kind names to fresh-spec factories.
var specRegistry = map[string]func() ExperimentSpec{}

// RegisterSpec adds an experiment kind to the registry. Duplicate
// registration panics: kinds are a closed, compile-time vocabulary.
func RegisterSpec(kind string, factory func() ExperimentSpec) {
	if kind == "" || factory == nil {
		panic("core: RegisterSpec with empty kind or nil factory")
	}
	if _, dup := specRegistry[kind]; dup {
		panic("core: duplicate spec kind " + kind)
	}
	specRegistry[kind] = factory
}

// SpecKinds lists the registered experiment kinds, sorted.
func SpecKinds() []string {
	kinds := make([]string, 0, len(specRegistry))
	for k := range specRegistry {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// NewSpec returns a fresh zero spec of the given kind.
func NewSpec(kind string) (ExperimentSpec, error) {
	f, ok := specRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment kind %q (have %v)", kind, SpecKinds())
	}
	return f(), nil
}

// DecodeSpec parses an envelope document into a spec. Unknown envelope
// or spec fields are errors — the API is versioned, and silently
// dropping a misspelled field would change the experiment a caller
// thinks they submitted.
func DecodeSpec(data []byte) (ExperimentSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env SpecEnvelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("core: bad spec envelope: %w", err)
	}
	if env.API != "" && env.API != SpecAPI {
		return nil, fmt.Errorf("core: spec api %q, want %q", env.API, SpecAPI)
	}
	s, err := NewSpec(env.Kind)
	if err != nil {
		return nil, err
	}
	if len(env.Spec) > 0 {
		sdec := json.NewDecoder(bytes.NewReader(env.Spec))
		sdec.DisallowUnknownFields()
		if err := sdec.Decode(s); err != nil {
			return nil, fmt.Errorf("core: bad %q spec: %w", env.Kind, err)
		}
	}
	return s, nil
}

// CanonicalSpec clones a spec through its JSON form and normalizes the
// clone. The caller's spec is left untouched.
func CanonicalSpec(s ExperimentSpec) (ExperimentSpec, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("core: marshal %q spec: %w", s.Kind(), err)
	}
	c, err := NewSpec(s.Kind())
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, c); err != nil {
		return nil, fmt.Errorf("core: reparse %q spec: %w", s.Kind(), err)
	}
	c.Normalize()
	return c, nil
}

// EncodeSpec renders the canonical envelope bytes of a spec: fixed
// field order (Go struct order), normalized values, compact encoding.
// These are the bytes SpecHash digests.
func EncodeSpec(s ExperimentSpec) ([]byte, error) {
	c, err := CanonicalSpec(s)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(SpecEnvelope{API: SpecAPI, Kind: c.Kind(), Spec: body})
}

// SpecHash returns the canonical SHA-256 cache key of a spec, as hex.
// Two specs describing the same experiment — regardless of JSON field
// order, omitted defaults, or equivalent spellings — hash identically.
func SpecHash(s ExperimentSpec) (string, error) {
	enc, err := EncodeSpec(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:]), nil
}

// RunSpec canonicalizes, validates and executes a spec on the Run.
// The spec itself is not mutated.
func RunSpec(r *Run, s ExperimentSpec) (*SpecResult, error) {
	c, err := CanonicalSpec(s)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid %q spec: %w", c.Kind(), err)
	}
	return c.Run(r)
}

// SpecSchema is the checked-in contract an experiment-spec envelope
// document must satisfy (schema/experiment_spec_v1.json).
type SpecSchema struct {
	// Schema is the exact envelope version string required.
	Schema string `json:"schema"`
	// Kinds enumerates the experiment kinds the document may carry.
	Kinds []string `json:"kinds"`
}

// ValidateSpecJSON checks an envelope document against a schema
// document and the registry: the api version must match, the kind must
// be both schema-listed and registered, and the spec body must decode
// strictly and validate.
func ValidateSpecJSON(schemaJSON, doc []byte) error {
	var sc SpecSchema
	if err := json.Unmarshal(schemaJSON, &sc); err != nil {
		return fmt.Errorf("core: bad spec schema document: %w", err)
	}
	if sc.Schema != SpecAPI {
		return fmt.Errorf("core: spec schema document is for %q, want %q", sc.Schema, SpecAPI)
	}
	var env SpecEnvelope
	if err := json.Unmarshal(doc, &env); err != nil {
		return fmt.Errorf("core: bad spec envelope: %w", err)
	}
	listed := false
	for _, k := range sc.Kinds {
		if k == env.Kind {
			listed = true
			break
		}
	}
	if !listed {
		return fmt.Errorf("core: kind %q not in schema kinds %v", env.Kind, sc.Kinds)
	}
	s, err := DecodeSpec(doc)
	if err != nil {
		return err
	}
	c, err := CanonicalSpec(s)
	if err != nil {
		return err
	}
	return c.Validate()
}
