package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// API versions the gateway's own wire formats: the HTTP response
// envelope and the cached result document.
const (
	API       = "repro/serve/v1"
	ResultAPI = "repro/serve/result/v1"
)

// Config sizes a Server. Zero fields take the defaults below.
type Config struct {
	// Workers bounds concurrent experiment executions (default 2).
	Workers int
	// QueueDepth bounds queued jobs per tenant (default 16); submissions
	// beyond it are rejected with 429.
	QueueDepth int
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// JobRetention bounds how many finished jobs stay pollable by id
	// (default 512). Older finished jobs are evicted and poll as 404;
	// their results remain in the cache under the spec hash.
	JobRetention int
	// RequestTimeout bounds how long a synchronous submission waits for
	// its result before degrading to 202 + pollable id (default 30s).
	RequestTimeout time.Duration
	// Logger receives request-scoped structured logs; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the experiment gateway: it decodes spec envelopes, serves
// repeats from the result cache, schedules misses on the worker pool,
// and exports its own telemetry as the serve.* obs metrics.
type Server struct {
	cfg   Config
	sched *scheduler
	cache *cache
	log   *slog.Logger

	reqSeq atomic.Uint64

	requests      atomic.Uint64
	submits       atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	coalesced     atomic.Uint64
	rejectedFull  atomic.Uint64
	rejectedSpec  atomic.Uint64
	jobsCompleted atomic.Uint64
	jobsFailed    atomic.Uint64
	waitTimeouts  atomic.Uint64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, cache: newCache(cfg.CacheEntries), log: cfg.Logger}
	s.sched = newScheduler(cfg.Workers, cfg.QueueDepth, cfg.JobRetention, s.cache, s.execute)
	return s
}

// Close stops intake and waits for in-flight jobs, bounded by ctx.
func (s *Server) Close(ctx context.Context) error {
	s.sched.close()
	drained := make(chan struct{})
	go func() {
		s.sched.drain()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown with jobs still running: %w", ctx.Err())
	}
}

// execute runs one job's spec on a fresh instrumented Run and caches
// the resulting document, returning it for the scheduler to commit
// under its lock. Failed runs (including panics) are not cached — a
// later identical submission retries.
func (s *Server) execute(j *job) (doc []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			doc, err = nil, fmt.Errorf("panic: %v", r)
		}
		if err != nil {
			s.jobsFailed.Add(1)
		} else {
			s.jobsCompleted.Add(1)
		}
	}()
	run := core.NewRun()
	res, err := core.RunSpec(run, j.spec)
	if err != nil {
		return nil, err
	}
	doc, err = buildDoc(j, res, run)
	if err != nil {
		return nil, err
	}
	s.cache.put(j.hash, doc)
	return doc, nil
}

// resultDoc is the cached result document: everything a caller needs to
// reproduce the CLI run — canonical spec, rendered text, structured
// rows, and the run's obs snapshot. The document is built once per
// hash and replayed verbatim, so resubmissions are bit-identical.
type resultDoc struct {
	API      string           `json:"api"`
	Kind     string           `json:"kind"`
	SpecHash string           `json:"spec_hash"`
	Spec     json.RawMessage  `json:"spec"`
	Result   *core.SpecResult `json:"result"`
	Obs      json.RawMessage  `json:"obs"`
}

func buildDoc(j *job, res *core.SpecResult, run *core.Run) ([]byte, error) {
	env, err := core.EncodeSpec(j.spec)
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	if err := run.Snap.WriteJSON(&snap); err != nil {
		return nil, err
	}
	return json.Marshal(resultDoc{
		API:      ResultAPI,
		Kind:     j.kind,
		SpecHash: j.hash,
		Spec:     env,
		Result:   res,
		Obs:      bytes.TrimSpace(snap.Bytes()),
	})
}

// Envelope is the gateway's HTTP response wrapper.
type Envelope struct {
	API       string          `json:"api"`
	ID        string          `json:"id,omitempty"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Kind      string          `json:"kind,omitempty"`
	SpecHash  string          `json:"spec_hash,omitempty"`
	Error     string          `json:"error,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms,omitempty"`
	Doc       json.RawMessage `json:"doc,omitempty"`
}

// Handler returns the gateway's HTTP routes wrapped in request-scoped
// logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/kinds", s.handleKinds)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return s.withLogging(mux)
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		id := s.reqSeq.Add(1)
		log := s.log.With("req", id, "method", r.Method, "path", r.URL.Path, "tenant", tenantOf(r))
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctxWithLogger(r.Context(), log)))
		log.Info("request", "status", sw.code, "dur_ms", time.Since(t0).Milliseconds())
	})
}

type logKey struct{}

func ctxWithLogger(ctx context.Context, log *slog.Logger) context.Context {
	return context.WithValue(ctx, logKey{}, log)
}

func (s *Server) logger(r *http.Request) *slog.Logger {
	if log, ok := r.Context().Value(logKey{}).(*slog.Logger); ok {
		return log
	}
	return s.log
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, Envelope{API: API, Status: "error", Error: err.Error()})
}

// handleSubmit is POST /v1/experiments: decode the spec envelope, serve
// from cache if the canonical hash is known, otherwise schedule.
// Synchronous by default (waits up to RequestTimeout), ?async=1 returns
// 202 with a pollable id immediately.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submits.Add(1)
	log := s.logger(r)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.rejectedSpec.Add(1)
		s.fail(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	spec, err := core.DecodeSpec(body)
	if err != nil {
		s.rejectedSpec.Add(1)
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	canon, err := core.CanonicalSpec(spec)
	if err != nil {
		s.rejectedSpec.Add(1)
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := canon.Validate(); err != nil {
		s.rejectedSpec.Add(1)
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	hash, err := core.SpecHash(canon)
	if err != nil {
		s.rejectedSpec.Add(1)
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	log = log.With("kind", canon.Kind(), "hash", hash[:12])

	// The lookup here keeps hits off the scheduler lock; submit looks
	// again under it for a job that finished in between.
	var j *job
	var coalesced bool
	doc, cached := s.cache.get(hash)
	if !cached {
		j, doc, coalesced, err = s.sched.submit(tenantOf(r), canon.Kind(), hash, canon)
		cached = doc != nil
	}
	if cached {
		s.cacheHits.Add(1)
		log.Info("cache hit")
		writeJSON(w, http.StatusOK, Envelope{
			API: API, Status: string(statusDone), Cached: true,
			Kind: canon.Kind(), SpecHash: hash, Doc: doc,
		})
		return
	}
	s.cacheMisses.Add(1)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.rejectedFull.Add(1)
			s.fail(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			s.fail(w, http.StatusServiceUnavailable, err)
		default:
			s.fail(w, http.StatusInternalServerError, err)
		}
		return
	}
	if coalesced {
		s.coalesced.Add(1)
		log.Info("coalesced", "job", j.id)
	} else {
		log.Info("scheduled", "job", j.id)
	}

	if r.URL.Query().Get("async") != "" {
		writeJSON(w, http.StatusAccepted, Envelope{
			API: API, ID: j.id, Status: string(statusQueued), Coalesced: coalesced,
			Kind: j.kind, SpecHash: hash,
		})
		return
	}

	select {
	case <-j.done:
		s.writeJob(w, j, coalesced)
	case <-time.After(s.cfg.RequestTimeout):
		s.waitTimeouts.Add(1)
		writeJSON(w, http.StatusAccepted, Envelope{
			API: API, ID: j.id, Status: s.jobStatus(j), Coalesced: coalesced,
			Kind: j.kind, SpecHash: hash,
		})
	case <-r.Context().Done():
		// Client gone; the job keeps running and lands in the cache.
	}
}

// handleGet is GET /v1/experiments/{id}: poll a job by id. Job ids are
// unguessable and the lookup is scoped to tenants that submitted or
// coalesced onto the job, so one tenant cannot poll another's work.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.lookup(r.PathValue("id"), tenantOf(r))
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	select {
	case <-j.done:
		s.writeJob(w, j, false)
	default:
		writeJSON(w, http.StatusOK, Envelope{
			API: API, ID: j.id, Status: s.jobStatus(j), Kind: j.kind, SpecHash: j.hash,
		})
	}
}

// jobStatus reads a live job's status under the scheduler lock.
func (s *Server) jobStatus(j *job) string {
	s.sched.mu.Lock()
	defer s.sched.mu.Unlock()
	return string(j.status)
}

// writeJob renders a finished job. Fields past done are immutable: the
// worker commits them under the scheduler lock before closing done.
func (s *Server) writeJob(w http.ResponseWriter, j *job, coalesced bool) {
	if j.status == statusFailed {
		writeJSON(w, http.StatusInternalServerError, Envelope{
			API: API, ID: j.id, Status: string(statusFailed), Coalesced: coalesced,
			Kind: j.kind, SpecHash: j.hash, Error: j.errMsg, ElapsedMS: j.elapsed.Milliseconds(),
		})
		return
	}
	writeJSON(w, http.StatusOK, Envelope{
		API: API, ID: j.id, Status: string(statusDone), Coalesced: coalesced,
		Kind: j.kind, SpecHash: j.hash, ElapsedMS: j.elapsed.Milliseconds(), Doc: j.doc,
	})
}

// kindInfo describes one registered experiment kind for discovery.
type kindInfo struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"default_spec"`
}

// handleKinds is GET /v1/kinds: the registry with each kind's canonical
// default spec (what an empty body for that kind normalizes to).
func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	kinds := make([]kindInfo, 0, len(core.SpecKinds()))
	for _, k := range core.SpecKinds() {
		spec, err := core.NewSpec(k)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		env, err := core.EncodeSpec(spec)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		kinds = append(kinds, kindInfo{Kind: k, Spec: env})
	}
	writeJSON(w, http.StatusOK, map[string]any{"api": API, "kinds": kinds})
}

// handleStats is GET /v1/stats: the gateway's own obs snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := obs.NewSnapshot()
	snap.Gather(s)
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w)
}

// Collect implements obs.Source for the serve.* metrics, overwriting
// each with the server's live value.
func (s *Server) Collect(snap *obs.Snapshot) {
	snap.SetCounter("serve.requests.total", "", s.requests.Load())
	snap.SetCounter("serve.submit.total", "", s.submits.Load())
	snap.SetCounter("serve.cache.hits", "", s.cacheHits.Load())
	snap.SetCounter("serve.cache.misses", "", s.cacheMisses.Load())
	// Submissions coalesced onto an in-flight identical job.
	snap.SetCounter("serve.coalesced", "", s.coalesced.Load())
	// Rejected by the per-tenant queue-depth limit, and as undecodable
	// or invalid.
	snap.SetCounter("serve.rejected.queue_full", "", s.rejectedFull.Load())
	snap.SetCounter("serve.rejected.bad_spec", "", s.rejectedSpec.Load())
	snap.SetCounter("serve.jobs.completed", "", s.jobsCompleted.Load())
	// Jobs that failed or panicked.
	snap.SetCounter("serve.jobs.failed", "", s.jobsFailed.Load())
	// Synchronous submissions that timed out into async polling.
	snap.SetCounter("serve.wait.timeouts", "", s.waitTimeouts.Load())
	queued, running, tenants := s.sched.depthStats()
	// Jobs queued across all tenants.
	snap.SetGauge("serve.queue.depth", "jobs", float64(queued))
	snap.SetGauge("serve.jobs.running", "jobs", float64(running))
	snap.SetGauge("serve.cache.entries", "docs", float64(s.cache.len()))
	// Tenants with queued work.
	snap.SetGauge("serve.tenants", "tenants", float64(tenants))
}
