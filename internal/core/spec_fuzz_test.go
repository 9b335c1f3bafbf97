package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeSpec holds every envelope DecodeSpec accepts to two rules:
// Validate, on the decoded spec and on its canonical form, does not
// panic; and EncodeSpec's bytes decode again to a spec with the same
// SpecHash. The seed corpus is testdata/fuzz/FuzzDecodeSpec.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		_ = s.Validate()
		c, err := CanonicalSpec(s)
		if err != nil {
			t.Fatalf("canonicalize accepted spec %q: %v", data, err)
		}
		_ = c.Validate()
		h, err := SpecHash(s)
		if err != nil {
			t.Fatalf("hash accepted spec %q: %v", data, err)
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("encode accepted spec %q: %v", data, err)
		}
		s2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("decode of encoded %q: %v", enc, err)
		}
		h2, err := SpecHash(s2)
		if err != nil {
			t.Fatalf("hash of re-decoded %q: %v", enc, err)
		}
		if h2 != h {
			t.Fatalf("hash moved across encode/decode: %s → %s\ninput   %q\nencoded %q", h, h2, data, enc)
		}
	})
}

// TestFuzzDecodeSpecCorpusCoversKinds keeps FuzzDecodeSpec's seed
// corpus in step with the registry: every seed decodes, and every
// registered kind has a seed.
func TestFuzzDecodeSpecCorpusCoversKinds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeSpec", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		header, lit, ok := strings.Cut(strings.TrimSpace(string(b)), "\n")
		if !ok || header != "go test fuzz v1" || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a one-value fuzz corpus file", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		s, err := DecodeSpec([]byte(data))
		if err != nil {
			t.Fatalf("%s: seed does not decode: %v", file, err)
		}
		seen[s.Kind()] = true
	}
	for _, k := range SpecKinds() {
		if !seen[k] {
			t.Errorf("no FuzzDecodeSpec seed for kind %q", k)
		}
	}
}
