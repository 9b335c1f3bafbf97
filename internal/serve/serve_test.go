package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, Envelope) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/experiments", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	return resp, env
}

// TestCacheHitBitIdentical is the gateway's core promise: resubmitting
// a spec returns the first run's document byte for byte, served from
// cache, with the serve.* counters recording the hit.
func TestCacheHitBitIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"api":"repro/spec/v1","kind":"tco","spec":{"blade":true}}`

	resp1, env1 := submit(t, ts, "alice", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d, error %q", resp1.StatusCode, env1.Error)
	}
	if env1.Cached || env1.Status != "done" || len(env1.Doc) == 0 {
		t.Fatalf("first submit: cached=%v status=%q doclen=%d", env1.Cached, env1.Status, len(env1.Doc))
	}

	// Same experiment, different field order and tenant: still a hit.
	resp2, env2 := submit(t, ts, "bob", `{"kind":"tco","api":"repro/spec/v1","spec":{"nodes":24,"blade":true}}`)
	if resp2.StatusCode != http.StatusOK || !env2.Cached {
		t.Fatalf("resubmit: status %d cached=%v", resp2.StatusCode, env2.Cached)
	}
	if !bytes.Equal(env1.Doc, env2.Doc) {
		t.Fatalf("cached doc differs from first run:\n%s\nvs\n%s", env1.Doc, env2.Doc)
	}
	if env1.SpecHash != env2.SpecHash {
		t.Fatalf("hash mismatch: %s vs %s", env1.SpecHash, env2.SpecHash)
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := s.cacheMisses.Load(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}

	// The doc embeds the canonical spec, result text and obs snapshot.
	var doc resultDoc
	if err := json.Unmarshal(env1.Doc, &doc); err != nil {
		t.Fatalf("result doc: %v", err)
	}
	if doc.API != ResultAPI || doc.Kind != "tco" || doc.SpecHash != env1.SpecHash {
		t.Errorf("doc header = %q %q %q", doc.API, doc.Kind, doc.SpecHash)
	}
	if doc.Result == nil || !strings.Contains(doc.Result.Text, "Cluster:") {
		t.Errorf("doc result text missing")
	}
	var snapDoc map[string]any
	if err := json.Unmarshal(doc.Obs, &snapDoc); err != nil {
		t.Errorf("obs payload not JSON: %v", err)
	}
}

// TestPerTenantFairness floods tenant A's queue and then submits one
// job for tenant B: round-robin dispatch must run B's job next, not
// after A's backlog.
func TestPerTenantFairness(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	first := true
	sched := newScheduler(1, 100, 64, func(j *job) ([]byte, error) {
		if first {
			first = false
			<-gate // hold the worker so the queues fill
		}
		mu.Lock()
		order = append(order, j.tenant)
		mu.Unlock()
		return nil, nil
	})
	defer func() { sched.close(); sched.drain() }()

	jobs := make([]*job, 0, 10)
	for i := 0; i < 8; i++ {
		j, _, err := sched.submit("flood", "tco", fmt.Sprintf("ha%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	jb, _, err := sched.submit("meek", "tco", "hb", nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, jb)
	close(gate)
	for _, j := range jobs {
		<-j.done
	}

	// The first job (flood's, already running) finishes first; the meek
	// tenant's single job must be dispatched within the next two slots,
	// not behind flood's remaining seven.
	pos := -1
	for i, tenant := range order {
		if tenant == "meek" {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("meek tenant ran at position %d of %v, want <= 2", pos, order)
	}
}

// TestQueueDepthLimit rejects the submission that exceeds the
// per-tenant depth with 429, without disturbing other tenants.
func TestQueueDepthLimit(t *testing.T) {
	gate := make(chan struct{})
	var started sync.Once
	running := make(chan struct{})
	sched := newScheduler(1, 2, 64, func(j *job) ([]byte, error) {
		started.Do(func() { close(running) })
		<-gate
		return nil, nil
	})
	defer func() { close(gate); sched.close(); sched.drain() }()

	// One running + two queued for tenant A (the running job left the
	// queue), then the queue is full.
	if _, _, err := sched.submit("a", "tco", "h0", nil); err != nil {
		t.Fatal(err)
	}
	<-running // the worker has dequeued h0
	for i := 1; i < 3; i++ {
		if _, _, err := sched.submit("a", "tco", fmt.Sprintf("h%d", i), nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, _, err := sched.submit("a", "tco", "h3", nil); err == nil {
		t.Fatal("expected queue-full error")
	}
	// Another tenant still has room.
	if _, _, err := sched.submit("b", "tco", "h4", nil); err != nil {
		t.Fatalf("tenant b rejected: %v", err)
	}
}

// TestCoalescing verifies single-flight: a second submission of an
// in-flight hash attaches to the same job instead of queueing a
// duplicate execution.
func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	sched := newScheduler(1, 10, 64, func(j *job) ([]byte, error) { <-gate; return nil, nil })
	defer func() { sched.close(); sched.drain() }()

	j1, co1, err := sched.submit("a", "tco", "same", nil)
	if err != nil || co1 {
		t.Fatalf("first: %v coalesced=%v", err, co1)
	}
	j2, co2, err := sched.submit("b", "tco", "same", nil)
	if err != nil || !co2 {
		t.Fatalf("second: %v coalesced=%v", err, co2)
	}
	if j1 != j2 {
		t.Fatal("coalesced submit returned a different job")
	}
	// Polling is scoped to attached tenants: both submitters may look
	// the job up, a stranger may not.
	if _, ok := sched.lookup(j1.id, "a"); !ok {
		t.Error("submitting tenant cannot look up its own job")
	}
	if _, ok := sched.lookup(j1.id, "b"); !ok {
		t.Error("coalesced tenant cannot look up the shared job")
	}
	if _, ok := sched.lookup(j1.id, "eve"); ok {
		t.Error("unrelated tenant can look up another tenant's job")
	}
	close(gate)
	<-j1.done
	// After completion the hash is no longer in flight: a new submit
	// schedules a fresh job (the HTTP layer would have hit the cache).
	j3, co3, err := sched.submit("a", "tco", "same", nil)
	if err != nil || co3 {
		t.Fatalf("post-done: %v coalesced=%v", err, co3)
	}
	<-j3.done
}

// TestConcurrentSubmissions drives many goroutines at the HTTP API with
// a mix of distinct and repeated specs.
func TestConcurrentSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := fmt.Sprintf(`{"api":"repro/spec/v1","kind":"tco","spec":{"nodes":%d}}`, 10+i)
				resp, env := submit(t, ts, fmt.Sprintf("t%d", g%3), body)
				if resp.StatusCode != http.StatusOK || env.Status != "done" {
					errs <- fmt.Errorf("g%d i%d: status %d %q err %q", g, i, resp.StatusCode, env.Status, env.Error)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// 4 distinct specs across 32 submissions: at most 4 misses that
	// executed (plus coalesced waits), the rest cache hits.
	if s.jobsCompleted.Load() > 4 {
		t.Errorf("jobs completed = %d, want <= 4", s.jobsCompleted.Load())
	}
	if s.cacheHits.Load()+s.cacheMisses.Load()+s.coalesced.Load() < 32 {
		t.Errorf("accounting: hits=%d misses=%d coalesced=%d", s.cacheHits.Load(), s.cacheMisses.Load(), s.coalesced.Load())
	}
}

// TestBadSubmissions maps decode and validation failures to 4xx.
func TestBadSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		body string
		code int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"api":"repro/spec/v2","kind":"tco"}`, http.StatusBadRequest},
		{`{"api":"repro/spec/v1","kind":"nope"}`, http.StatusBadRequest},
		{`{"api":"repro/spec/v1","kind":"tco","spec":{"bogus":1}}`, http.StatusBadRequest},
		{`{"api":"repro/spec/v1","kind":"tco","spec":{"nodes":-5}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, env := submit(t, ts, "", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%q: status %d, want %d (error %q)", tc.body, resp.StatusCode, tc.code, env.Error)
		}
	}
	if got := s.rejectedSpec.Load(); got != uint64(len(cases)) {
		t.Errorf("rejected.bad_spec = %d, want %d", got, len(cases))
	}
}

// TestRemovedEngineNotServed: after a dual N-body result is cached, a
// request for the removed group engine — spelled "engine":"group" or
// with the retired "groupwalk" field — is a 4xx, never a replay of the
// dual document.
func TestRemovedEngineNotServed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, env := submit(t, ts, "", `{"api":"repro/spec/v1","kind":"nbody","spec":{"n":300,"steps":1,"engine":"dual"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dual run: status %d (error %q)", resp.StatusCode, env.Error)
	}
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"api":"repro/spec/v1","kind":"nbody","spec":{"n":300,"steps":1,"engine":"group"}}`, http.StatusUnprocessableEntity},
		{`{"api":"repro/spec/v1","kind":"nbody","spec":{"n":300,"steps":1,"groupwalk":true}}`, http.StatusBadRequest},
	} {
		resp, env := submit(t, ts, "", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (error %q)", tc.body, resp.StatusCode, tc.code, env.Error)
		}
		if env.Cached || len(env.Doc) > 0 {
			t.Errorf("%s: served a result document", tc.body)
		}
	}
}

// retiredSpellingNotServed caches the default run of each kind in
// warm, then submits each request in reqs and checks that it gets the
// given status with an error naming the given word, and never a
// replayed document.
func retiredSpellingNotServed(t *testing.T, warm []string, reqs []retiredSpelling) {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, kind := range warm {
		if resp, env := submit(t, ts, "", retiredBody(kind, "")); resp.StatusCode != http.StatusOK {
			t.Fatalf("default %s run: status %d (error %q)", kind, resp.StatusCode, env.Error)
		}
	}
	for _, tc := range reqs {
		b := retiredBody(tc.kind, tc.extra)
		resp, env := submit(t, ts, "", b)
		if resp.StatusCode != tc.code || !strings.Contains(env.Error, tc.field) {
			t.Errorf("%s: status %d error %q, want %d naming %q", b, resp.StatusCode, env.Error, tc.code, tc.field)
		}
		if env.Cached || len(env.Doc) > 0 {
			t.Errorf("%s: served a result document", b)
		}
	}
}

// retiredSpelling is one request adding a retired spelling (extra) to
// a small spec of kind, and the status and error word it must get.
type retiredSpelling struct {
	kind, extra, field string
	code               int
}

func retiredBody(kind, extra string) string {
	base := map[string]string{
		"nbody":     `"n":300,"steps":1`,
		"table2":    `"particles":2000,"cpu_counts":[1,2]`,
		"nassweep":  `"ranks":[1,2]`,
		"topperopt": `"nodes":[8]`,
	}
	return `{"api":"repro/spec/v1","kind":"` + kind + `","spec":{` + base[kind] + extra + `}}`
}

// TestRetiredSpellingsNotServed: after the default nbody and table2
// runs are cached, a request that adds a deleted execution-only field
// (concurrent, workers, no_memo, no_prune) is a 400 naming the field,
// and "engine":"list" is a 422. None of them replays a cached document.
func TestRetiredSpellingsNotServed(t *testing.T) {
	retiredSpellingNotServed(t, []string{"nbody", "table2"}, []retiredSpelling{
		{"table2", `,"concurrent":true`, "concurrent", http.StatusBadRequest},
		{"table2", `,"workers":2`, "workers", http.StatusBadRequest},
		{"nassweep", `,"concurrent":true`, "concurrent", http.StatusBadRequest},
		{"nassweep", `,"workers":2`, "workers", http.StatusBadRequest},
		{"topperopt", `,"workers":2`, "workers", http.StatusBadRequest},
		{"topperopt", `,"no_memo":true`, "no_memo", http.StatusBadRequest},
		{"topperopt", `,"no_prune":true`, "no_prune", http.StatusBadRequest},
		{"nbody", `,"engine":"list"`, "list", http.StatusUnprocessableEntity},
	})
}

// TestTreeReuseSpellingServedFromCache: tree_reuse once folded into the
// default spec, so spelling it out was a cache hit on the default run.
// The field is deleted: after the default nbody run is cached, every
// spelling it used to accept is a 400 naming it, never a replay.
func TestTreeReuseSpellingServedFromCache(t *testing.T) {
	var reqs []retiredSpelling
	for _, v := range []string{`""`, `"auto"`, `"on"`, `"off"`} {
		reqs = append(reqs, retiredSpelling{"nbody", `,"tree_reuse":` + v, "tree_reuse", http.StatusBadRequest})
	}
	retiredSpellingNotServed(t, []string{"nbody"}, reqs)
}

// TestMPIModeSpellingServedFromCache: mpi_mode once folded into the
// default spec, so spelling it out was a cache hit on the default run.
// The field is deleted: after the default table2 run is cached, every
// spelling it used to accept is a 400 naming it, never a replay.
func TestMPIModeSpellingServedFromCache(t *testing.T) {
	var reqs []retiredSpelling
	for _, v := range []string{`""`, `"auto"`, `"goroutine"`, `"event"`} {
		reqs = append(reqs, retiredSpelling{"table2", `,"mpi_mode":` + v, "mpi_mode", http.StatusBadRequest})
	}
	retiredSpellingNotServed(t, []string{"table2"}, reqs)
}

// TestHotLoadServedFromCache is the gateway under concurrent replay
// load: 8 distinct specs run once, then 8 clients across 3 tenants
// resubmit them for 6 rounds. Every hot submission must be a cache hit
// replaying the cold run's document byte for byte, with cached p99 at
// most 250 ms and at least 20 requests/s — floors a map lookup plus a
// JSON copy clears by orders of magnitude even on a loaded host.
func TestHotLoadServedFromCache(t *testing.T) {
	const (
		specs   = 8
		rounds  = 6
		clients = 8
		tenants = 3
	)
	_, ts := newTestServer(t, Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 2 * specs * rounds})
	spec := func(i int) string {
		return fmt.Sprintf(`{"api":"repro/spec/v1","kind":"tco","spec":{"nodes":%d}}`, 10+i)
	}
	docs := make([][]byte, specs)
	for i := range docs {
		resp, env := submit(t, ts, "t0", spec(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold submit %d: status %d (error %q)", i, resp.StatusCode, env.Error)
		}
		docs[i] = env.Doc
	}

	work := make(chan int, specs*rounds) // holds the whole hot workload
	for r := 0; r < rounds; r++ {
		for i := 0; i < specs; i++ {
			work <- i
		}
	}
	close(work)
	var mu sync.Mutex
	var lat []time.Duration
	var misses, differ int
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := range work {
				start := time.Now()
				req, err := http.NewRequest("POST", ts.URL+"/v1/experiments", strings.NewReader(spec(i)))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				var env Envelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				d := time.Since(start)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("hot submit %d: status %d, decode error %v", i, resp.StatusCode, err)
					return
				}
				mu.Lock()
				lat = append(lat, d)
				if !env.Cached {
					misses++
				}
				if !bytes.Equal(env.Doc, docs[i]) {
					differ++
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("t%d", c%tenants))
	}
	wg.Wait()
	wall := time.Since(t0)
	if t.Failed() {
		return
	}
	if misses != 0 || differ != 0 {
		t.Fatalf("%d of %d hot submissions missed the cache, %d replayed a different document", misses, len(lat), differ)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[int(0.99*float64(len(lat)-1))]
	rps := float64(len(lat)) / wall.Seconds()
	t.Logf("%d cached requests: p99 %s, %.0f requests/s", len(lat), p99, rps)
	if p99 > 250*time.Millisecond {
		t.Errorf("cached submit p99 %s, want <= 250ms", p99)
	}
	if rps < 20 {
		t.Errorf("%.1f cached requests/s, want >= 20", rps)
	}
}

// TestAsyncSubmitAndPoll takes the 202 + poll path.
func TestAsyncSubmitAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/experiments?async=1", "application/json",
		strings.NewReader(`{"api":"repro/spec/v1","kind":"table5"}`))
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || env.ID == "" {
		t.Fatalf("async submit: status %d id %q", resp.StatusCode, env.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/experiments/" + env.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got Envelope
		json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if got.Status == "done" {
			if len(got.Doc) == 0 {
				t.Fatal("done without doc")
			}
			break
		}
		if got.Status == "failed" {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", got.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestKindsAndStats covers the discovery and telemetry endpoints.
func TestKindsAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/kinds")
	if err != nil {
		t.Fatal(err)
	}
	var kinds struct {
		API   string     `json:"api"`
		Kinds []kindInfo `json:"kinds"`
	}
	json.NewDecoder(resp.Body).Decode(&kinds)
	resp.Body.Close()
	if kinds.API != API || len(kinds.Kinds) != len(core.SpecKinds()) {
		t.Fatalf("kinds: api %q, %d kinds want %d", kinds.API, len(kinds.Kinds), len(core.SpecKinds()))
	}
	for _, k := range kinds.Kinds {
		if _, err := core.DecodeSpec(k.Spec); err != nil {
			t.Errorf("kind %s default spec does not round-trip: %v", k.Kind, err)
		}
	}

	submit(t, ts, "", `{"api":"repro/spec/v1","kind":"tco"}`)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Samples []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"samples"`
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	byName := map[string]float64{}
	for _, s := range stats.Samples {
		byName[s.Name] = s.Value
	}
	if byName["serve.submit.total"] < 1 {
		t.Errorf("serve.submit.total = %v, want >= 1", byName["serve.submit.total"])
	}
	if byName["serve.jobs.completed"] < 1 {
		t.Errorf("serve.jobs.completed = %v, want >= 1", byName["serve.jobs.completed"])
	}
	if _, ok := byName["serve.cache.entries"]; !ok {
		t.Error("serve.cache.entries gauge missing")
	}
}

// TestCacheEviction bounds the cache FIFO.
func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	c.put("c", []byte("3"))
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("newest entry missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestJobRetentionBound evicts the oldest finished jobs, so the jobs
// map cannot grow without bound in a long-running daemon.
func TestJobRetentionBound(t *testing.T) {
	sched := newScheduler(1, 100, 2, func(j *job) ([]byte, error) { return nil, nil })
	defer func() { sched.close(); sched.drain() }()
	jobs := make([]*job, 0, 5)
	for i := 0; i < 5; i++ {
		j, _, err := sched.submit("a", "tco", fmt.Sprintf("h%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		<-j.done // serialize so eviction order is deterministic
	}
	sched.mu.Lock()
	kept := len(sched.jobs)
	sched.mu.Unlock()
	if kept != 2 {
		t.Errorf("jobs retained = %d, want 2", kept)
	}
	if _, ok := sched.lookup(jobs[0].id, "a"); ok {
		t.Error("oldest finished job still pollable past the retention bound")
	}
	if _, ok := sched.lookup(jobs[4].id, "a"); !ok {
		t.Error("newest finished job evicted")
	}
}

// TestTenantRotationCleanup drops drained tenants from the rotation, so
// the per-tenant bookkeeping is bounded by pending work, not by every
// X-Tenant value ever seen.
func TestTenantRotationCleanup(t *testing.T) {
	sched := newScheduler(2, 10, 64, func(j *job) ([]byte, error) { return nil, nil })
	defer func() { sched.close(); sched.drain() }()
	for i := 0; i < 20; i++ {
		j, _, err := sched.submit(fmt.Sprintf("tenant%d", i), "tco", fmt.Sprintf("h%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
	}
	if queued, _, tenants := sched.depthStats(); queued != 0 || tenants != 0 {
		t.Errorf("after drain: %d queued, %d tenants in rotation, want 0/0", queued, tenants)
	}
}

// TestFailedJobCommitted: a panicking execute surfaces as a failed job
// whose terminal state is readable after done, and the worker survives
// to run the next job.
func TestFailedJobCommitted(t *testing.T) {
	sched := newScheduler(1, 10, 64, func(j *job) ([]byte, error) {
		if j.hash == "boom" {
			panic("kaboom")
		}
		return []byte("ok"), nil
	})
	defer func() { sched.close(); sched.drain() }()
	bad, _, err := sched.submit("a", "tco", "boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-bad.done
	if bad.status != statusFailed || !strings.Contains(bad.errMsg, "kaboom") {
		t.Errorf("panicked job: status %q errMsg %q", bad.status, bad.errMsg)
	}
	good, _, err := sched.submit("a", "tco", "fine", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-good.done
	if good.status != statusDone || string(good.doc) != "ok" {
		t.Errorf("job after panic: status %q doc %q", good.status, good.doc)
	}
}

// TestGracefulClose rejects new work and drains in-flight jobs.
func TestGracefulClose(t *testing.T) {
	s := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.sched.submit("a", "tco", "h", nil); err == nil {
		t.Fatal("submit after close succeeded")
	}
}
