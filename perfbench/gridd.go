package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The gridd-mix traffic: an open loop at a fixed rate across three
// tenants. Nine requests in ten repeat a hot set of cheap cost-model
// specs that set-up warms; the tenth is an N-body spec never seen
// before, all of the same size, so their cost is uniform. Over a 20 s run the cold specs
// outnumber the gateway's 256-entry FIFO cache, so hot entries get
// evicted and re-run.
const (
	griddRate    = 150.0 // requests per second
	griddTenants = 3
	griddHot     = 16
	// griddColdEvery puts exactly one cold request, at a seeded
	// position, in every block of this many requests, so every run of a
	// given length does the same amount of cold work.
	griddColdEvery = 10
	griddColdN     = 1000
	// griddLimit is the latency within which a request counts towards
	// goodput: gridload's p99 limit.
	griddLimit     = 250 * time.Millisecond
	griddSetupReps = 25
	// griddFloorSeconds is the longest the traced run's /healthz open
	// loop runs.
	griddFloorSeconds = 5
	griddSchemaPath   = "schema/gridd_result_v1.json"
)

// request is one generated submission.
type request struct {
	due    time.Duration // send time, from the start of the window
	tenant string
	hot    int // index into the hot set, or -1 for a cold spec
	body   []byte
}

func hotBody(nodes int) []byte {
	return []byte(fmt.Sprintf(`{"api":"repro/spec/v1","kind":"tco","spec":{"nodes":%d}}`, nodes))
}

func coldBody(dt float64) []byte {
	return []byte(fmt.Sprintf(`{"api":"repro/spec/v1","kind":"nbody","spec":{"n":%d,"steps":1,"dt":%s}}`,
		griddColdN, strconv.FormatFloat(dt, 'g', -1, 64)))
}

// griddTraffic generates the hot set and the request sequence of a
// window of the given length from the seed alone.
func griddTraffic(seed uint64, seconds float64) (hot [][]byte, reqs []request) {
	rng := sim.NewRNG(seed)
	nodes := map[int]bool{}
	for len(hot) < griddHot {
		n := 8 + rng.Intn(500)
		if !nodes[n] {
			nodes[n] = true
			hot = append(hot, hotBody(n))
		}
	}
	// Each cold spec gets its own time step, hence its own hash; the
	// offsets start above zero, so no cold spec equals the warm-up one.
	coldBase := rng.Intn(1 << 20)
	total := int(seconds * griddRate)
	coldAt := 0
	for i := 0; i < total; i++ {
		if i%griddColdEvery == 0 {
			coldAt = i + rng.Intn(griddColdEvery)
		}
		r := request{
			due:    time.Duration(float64(i) / griddRate * float64(time.Second)),
			tenant: fmt.Sprintf("t%d", rng.Intn(griddTenants)),
			hot:    -1,
		}
		if i == coldAt {
			r.body = coldBody(0.005 + float64(coldBase+i+1)*1e-9)
		} else {
			r.hot = rng.Intn(griddHot)
			r.body = hot[r.hot]
		}
		reqs = append(reqs, r)
	}
	return hot, reqs
}

// shot is what happened to one request, in offsets from the start of
// the window. origin is where its latency is timed from: its due time,
// or the load generator's wake-up when it slept until the request was
// due.
type shot struct {
	due, origin, sent, done time.Duration
	status                  int
	body                    []byte
	err                     error
}

// latency is the time from the request's origin to its reply.
func (s shot) latency() time.Duration { return s.done - s.origin }

// openLoop sends each request at its due time over conns connections.
// When every connection is busy, a due request waits for one, and so
// do the requests due behind it: the loop is then behind, and their
// latency runs from their due time, so the stall counts against each of
// them. When the loop is on time it sleeps until the request is due;
// the sleep wakes late by the host's timer overshoot, which is the load
// generator's and not the gateway's, so that request's latency runs
// from the wake-up. Lateness (sent − due) keeps both.
func openLoop(reqs []request, conns int, send func(conn, i int) (int, []byte, error)) []shot {
	shots := make([]shot, len(reqs))
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range work {
				sh := &shots[i]
				sh.sent = time.Since(start)
				sh.status, sh.body, sh.err = send(c, i)
				sh.done = time.Since(start)
			}
		}(c)
	}
	for i := range reqs {
		origin := reqs[i].due
		if d := reqs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
			origin = time.Since(start)
		}
		shots[i].due, shots[i].origin = reqs[i].due, origin
		work <- i
	}
	close(work)
	wg.Wait()
	return shots
}

type envelope struct {
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Doc       json.RawMessage `json:"doc"`
}

// gateway is an in-process gridd served over loopback.
type gateway struct {
	gw      *serve.Server
	ts      *httptest.Server
	handler *timedHandler
}

// reqHeader carries a traced request's index to timedHandler. The
// gateway ignores headers it does not know.
const reqHeader = "X-Perfbench-Req"

// timedHandler wraps the gateway's handler from outside and records how
// long the gateway spent on each traced request, from reading the
// request to writing the reply.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	took map[int]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t)
	h.mu.Lock()
	h.took[i] = d
	h.mu.Unlock()
}

// times returns a copy of the recorded handler times.
func (h *timedHandler) times() map[int]time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]time.Duration, len(h.took))
	for i, d := range h.took {
		out[i] = d
	}
	return out
}

func (g *gateway) close() error {
	g.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return g.gw.Close(ctx)
}

// post submits one spec. A non-negative traceID marks the request for
// timedHandler.
func post(client *http.Client, base, tenant string, body []byte, traceID int) (int, []byte, error) {
	req, err := http.NewRequest("POST", base+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	if traceID >= 0 {
		req.Header.Set(reqHeader, strconv.Itoa(traceID))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// decodeDone decodes a reply that must be 200 with status done.
func decodeDone(status int, body []byte) (*envelope, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	if status != http.StatusOK || env.Status != "done" {
		return nil, fmt.Errorf("status %d %q: %s", status, env.Status, env.Error)
	}
	return &env, nil
}

// startGateway starts the gateway with its defaults and warms the hot
// set and one cold-kind spec, one request at a time, returning the hot
// documents.
func startGateway(hot [][]byte) (*gateway, [][]byte, error) {
	gw := serve.New(serve.Config{})
	h := &timedHandler{next: gw.Handler(), took: map[int]time.Duration{}}
	g := &gateway{gw: gw, ts: httptest.NewServer(h), handler: h}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	docs := make([][]byte, len(hot))
	warm := append(append([][]byte(nil), hot...), coldBody(0.005))
	for i, body := range warm {
		status, b, err := post(client, g.ts.URL, "warmup", body, -1)
		if err == nil {
			var env *envelope
			if env, err = decodeDone(status, b); err == nil && i < len(hot) {
				docs[i] = env.Doc
			}
		}
		if err != nil {
			g.close()
			return nil, nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return g, docs, nil
}

func serveStats(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Samples []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"samples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	out := map[string]float64{}
	for _, s := range doc.Samples {
		out[s.Name] = s.Value
	}
	return out, nil
}

// runGridd runs the gridd-mix workload. Each op is one request.
func runGridd(cfg config) (*outcome, error) {
	schema, err := os.ReadFile(griddSchemaPath)
	if err != nil {
		return nil, fmt.Errorf("result schema: %w", err)
	}
	hot, reqs := griddTraffic(cfg.seed, cfg.seconds)
	if len(reqs) == 0 {
		return nil, fmt.Errorf("a %gs window holds no request", cfg.seconds)
	}
	// Host speed drifts within a run, and a block of set-up repetitions
	// samples one moment of it, so the run sets up before its window
	// and again after it. The window uses the last gateway set up
	// before it.
	var setups []float64
	setUp := func() (*gateway, [][]byte, error) {
		runtime.GC()
		t := time.Now()
		g, docs, err := startGateway(hot)
		setups = append(setups, time.Since(t).Seconds())
		return g, docs, err
	}
	var g *gateway
	var hotDocs [][]byte
	for rep := 0; rep < griddSetupReps/2+1; rep++ {
		if g != nil {
			if err := g.close(); err != nil {
				return nil, err
			}
		}
		if g, hotDocs, err = setUp(); err != nil {
			return nil, err
		}
	}
	defer g.close()
	for i, doc := range hotDocs {
		if err := serve.ValidateResultJSON(schema, doc); err != nil {
			return nil, fmt.Errorf("hot spec %d: %w", i, err)
		}
	}

	conns := runtime.NumCPU()
	clients := make([]*http.Client, conns)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer clients[c].CloseIdleConnections()
	}
	base := g.ts.URL
	before, err := serveStats(clients[0], base)
	if err != nil {
		return nil, err
	}
	var tr *obs.Tracer
	if cfg.trace {
		tr = obs.NewTracer()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	shots := openLoop(reqs, conns, func(c, i int) (int, []byte, error) {
		// In a traced run every other request is traced; the rest give
		// the tracing overhead.
		traceID := -1
		var sp obs.Span
		if cfg.trace && i%2 == 1 {
			traceID = i
			sp = tr.Begin(obs.PidHost, c+1, "loadgen", "request")
		}
		status, body, err := post(clients[c], base, reqs[i].tenant, reqs[i].body, traceID)
		sp.End(nil)
		return status, body, err
	})
	cpuWindow := cpuTime() - cpu0
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	after, err := serveStats(clients[0], base)
	if err != nil {
		return nil, err
	}
	for len(setups) < griddSetupReps {
		g2, _, err := setUp()
		if err != nil {
			return nil, err
		}
		if err := g2.close(); err != nil {
			return nil, err
		}
	}

	out := &outcome{metrics: map[string]float64{}}
	handlerTook := g.handler.times()
	var lat, hotLat, coldLat, runMS, waitMS, late, latOdd, latEven, handlerUS []float64
	var hotTraced, hotAttributed float64
	good := 0
	for i, sh := range shots {
		out.attempted++
		l := ms(sh.latency())
		lat = append(lat, l)
		late = append(late, ms(sh.sent-sh.due))
		if i%2 == 1 {
			latOdd = append(latOdd, l)
		} else {
			latEven = append(latEven, l)
		}
		if sh.err != nil {
			out.fail(1, "request %d: %v", i, sh.err)
			continue
		}
		env, err := decodeDone(sh.status, sh.body)
		if err != nil {
			out.fail(1, "request %d: %v", i, err)
			continue
		}
		if r := reqs[i]; r.hot >= 0 {
			if !bytes.Equal(env.Doc, hotDocs[r.hot]) {
				out.fail(1, "request %d: hot document differs from the warm-up one", i)
				continue
			}
		} else if err := serve.ValidateResultJSON(schema, env.Doc); err != nil {
			out.fail(1, "request %d: %v", i, err)
			continue
		}
		if env.Cached {
			hotLat = append(hotLat, l)
			if took, ok := handlerTook[i]; ok {
				handlerUS = append(handlerUS, float64(took)/float64(time.Microsecond))
				hotTraced += l
				hotAttributed += ms(sh.sent-sh.origin) + ms(took)
			}
		} else {
			coldLat = append(coldLat, l)
			runMS = append(runMS, float64(env.ElapsedMS))
			waitMS = append(waitMS, l-float64(env.ElapsedMS))
		}
		if sh.latency() <= griddLimit {
			good++
		}
	}
	n := float64(len(shots))
	p50 := median(lat)
	out.note("op_p50_ms", p50, "ms", fmt.Sprintf("from due time or timer wake-up, %.0f req/s open loop over %d connections, n=%d", griddRate, conns, len(lat)))
	out.noteTail("op_p99_ms", lat, 0.99, "ms")
	out.note("goodput_rps", float64(good)/cfg.seconds, "1/s", fmt.Sprintf("200/done, checked, within %v", griddLimit))
	if !cfg.trace {
		out.metrics["setup_s"] = median(setups)
		out.metrics["op_p50_ms"] = p50
		out.metrics["cpu_ms_per_op"] = ms(cpuWindow) / n
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}

	stats, err := writeTrace(tr, traceDir, cfg.traceFile)
	if err != nil {
		return nil, err
	}
	rttUS, loadgenCPU, err := probeFloor(clients, base, reqs)
	if err != nil {
		return nil, err
	}
	specUS, err := timeSpecs(reqs)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	m := out.metrics
	if tailOK(len(lat), 0.99) {
		m["op_p99_ms"] = percentile(lat, 0.99)
	}
	m["goodput_rps"] = float64(good) / cfg.seconds
	m["core.spec_us"] = specUS
	if hm := delta("serve.cache.hits") + delta("serve.cache.misses"); hm > 0 {
		m["serve.hit_ratio"] = delta("serve.cache.hits") / hm
	}
	if len(hotLat) > 0 {
		m["serve.hot_p50_ms"] = median(hotLat)
	}
	if len(handlerUS) > 0 {
		m["serve.handler_hot_us"] = median(handlerUS)
		// Traced cache hits: the time neither the load generator's
		// dispatch (origin to send), the gateway's handler nor the
		// /healthz round trip at the window's rate accounts for.
		rtt := rttUS / 1e3 * float64(len(handlerUS))
		m["unattributed_share"] = max(0, 1-(hotAttributed+rtt)/hotTraced)
	}
	if len(coldLat) > 0 {
		m["serve.cold_p50_ms"] = median(coldLat)
		m["serve.run_ms"] = median(runMS)
		m["serve.queue_wait_ms"] = median(waitMS)
	}
	m["serve.rejected"] = delta("serve.rejected.queue_full")
	m["serve.coalesced"] = delta("serve.coalesced")
	m["http.rtt_us"] = rttUS
	m["loadgen.cpu_ms_per_op"] = loadgenCPU
	m["loadgen.late_p99_ms"] = percentile(late, 0.99)
	m["go.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	m["go.gc_pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	m["obs.trace_overhead_pct"] = 100 * (median(latOdd)/median(latEven) - 1)
	out.spans, out.spanOps = stats, len(shots)/2
	return out, nil
}

// probeFloor sends GET /healthz in the window's open loop, over the
// same connections and at the same rate, for up to griddFloorSeconds.
// It returns the median round trip in microseconds, the transport floor
// under every request, and the process CPU per request in
// milliseconds: the load generator plus both ends of the HTTP
// transport.
func probeFloor(clients []*http.Client, base string, reqs []request) (rttUS, cpuMS float64, err error) {
	n := min(len(reqs), int(griddFloorSeconds*griddRate))
	cpu0 := cpuTime()
	shots := openLoop(reqs[:n], len(clients), func(c, _ int) (int, []byte, error) {
		resp, err := clients[c].Get(base + "/healthz")
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	})
	cpuMS = ms(cpuTime()-cpu0) / float64(n)
	rtt := make([]float64, n)
	for i, sh := range shots {
		if sh.err != nil || sh.status != http.StatusOK {
			return 0, 0, fmt.Errorf("healthz: status %d: %v", sh.status, sh.err)
		}
		rtt[i] = float64(sh.done-sh.sent) / float64(time.Microsecond)
	}
	return median(rtt), cpuMS, nil
}

// timeSpecs times the gateway's spec front end — decode, canonical
// form, validation and hash — on every request body, in microseconds
// per body.
func timeSpecs(reqs []request) (float64, error) {
	t := time.Now()
	for _, r := range reqs {
		s, err := core.DecodeSpec(r.body)
		if err != nil {
			return 0, err
		}
		c, err := core.CanonicalSpec(s)
		if err != nil {
			return 0, err
		}
		if err := c.Validate(); err != nil {
			return 0, err
		}
		if _, err := core.SpecHash(c); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t)) / float64(time.Microsecond) / float64(len(reqs)), nil
}
