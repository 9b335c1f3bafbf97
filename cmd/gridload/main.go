// Command gridload is the experiment gateway's HTTP smoke test: it
// submits one spec twice and checks that the resubmission is a cache
// hit returning the first run's result document byte for byte — the
// gateway's core promise. By default it boots an in-process gateway;
// -target points it at a running gridd.
//
// Usage:
//
//	gridload -smoke                        # in-process gateway
//	gridload -target http://:8440 -smoke   # a running gridd (CI)
//
// The gateway's load behaviour (cache hit rate, byte-identical replays,
// cached p99 and throughput under concurrent clients) is held by
// TestHotLoadServedFromCache in internal/serve.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

func main() {
	target := flag.String("target", "", "gateway base `URL`; empty runs an in-process gateway")
	smoke := flag.Bool("smoke", false, "submit one spec twice, assert a bit-identical cache hit (required)")
	smokeKind := flag.String("smoke-kind", "table1", "experiment kind the smoke submits")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for -target to become healthy")
	flag.Parse()
	if !*smoke {
		fmt.Fprintln(os.Stderr, "gridload: -smoke is the only mode")
		flag.Usage()
		os.Exit(2)
	}

	base := *target
	if base == "" {
		gw := serve.New(serve.Config{})
		ts := httptest.NewServer(gw.Handler())
		defer ts.Close()
		defer gw.Close(context.Background())
		base = ts.URL
	} else {
		check(waitReady(base, *wait))
	}
	check(runSmoke(strings.TrimRight(base, "/"), *smokeKind))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridload:", err)
		os.Exit(1)
	}
}

// envelope mirrors serve.Envelope for decoding responses.
type envelope struct {
	Status   string          `json:"status"`
	Cached   bool            `json:"cached"`
	SpecHash string          `json:"spec_hash"`
	Error    string          `json:"error"`
	Doc      json.RawMessage `json:"doc"`
}

func submit(base, body string) (*envelope, error) {
	req, err := http.NewRequest("POST", base+"/v1/experiments", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", "smoke")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || env.Status != "done" {
		return nil, fmt.Errorf("status %d %q: %s", resp.StatusCode, env.Status, env.Error)
	}
	return &env, nil
}

func waitReady(base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := http.Get(strings.TrimRight(base, "/") + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway at %s not healthy after %s: %v", base, patience, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runSmoke submits one spec twice; the resubmission must be a cache hit
// returning the first run's document byte for byte.
func runSmoke(base, kind string) error {
	body := fmt.Sprintf(`{"api":"repro/spec/v1","kind":%q}`, kind)
	first, err := submit(base, body)
	if err != nil {
		return fmt.Errorf("first submit: %w", err)
	}
	second, err := submit(base, body)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if !second.Cached {
		return fmt.Errorf("resubmit of %q was not served from cache", kind)
	}
	if !bytes.Equal(first.Doc, second.Doc) {
		return fmt.Errorf("cached %q document differs from the first run", kind)
	}
	fmt.Printf("smoke ok: %s %s cached bit-identical (%d bytes)\n", kind, first.SpecHash[:12], len(first.Doc))
	return nil
}
