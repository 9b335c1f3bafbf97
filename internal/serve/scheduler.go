// Package serve is the simulation-as-a-service layer behind cmd/gridd:
// a scheduler that runs core.ExperimentSpec submissions on a bounded
// worker pool with per-tenant fairness and a queue-depth limit, a
// result cache keyed by the spec's canonical hash (the simulator is
// deterministic, so identical submissions are free hits), and the HTTP
// handlers that expose both as a REST/JSON API.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrQueueFull rejects a submission when the tenant's queue is at its
// depth limit. The HTTP layer maps it to 429.
var ErrQueueFull = errors.New("serve: tenant queue full")

// ErrClosed rejects submissions after shutdown has begun. The HTTP
// layer maps it to 503.
var ErrClosed = errors.New("serve: shutting down")

// jobStatus is the lifecycle of one submission.
type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// job is one scheduled experiment execution. A job is shared by every
// coalesced submission of the same spec hash; tenants records which
// tenants attached, and only they may poll it. All mutable fields are
// written under the scheduler mutex; done closes exactly once, after
// the terminal status/doc/errMsg/elapsed are committed, so readers that
// have observed done may read them without the lock.
type job struct {
	id      string
	tenant  string // submitting tenant, for queue accounting
	tenants map[string]struct{}
	kind    string
	hash    string
	spec    core.ExperimentSpec // released once the job finishes

	done    chan struct{}
	status  jobStatus
	doc     []byte // deterministic result document, set on success
	errMsg  string // set on failure
	elapsed time.Duration
}

// scheduler owns the worker pool and the per-tenant queues. Fairness is
// strict round-robin over tenants with pending work: a tenant
// submitting thousands of jobs cannot starve one submitting a single
// job, because each dispatch takes the head of the next non-empty
// tenant queue in rotation. A tenant whose queue drains is dropped from
// the rotation (and re-added on its next submission), so the tenant
// bookkeeping is bounded by pending work, not by every name ever seen.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]*job // per-tenant FIFO; only non-empty queues
	tenants []string          // rotation order over queues' keys
	rr      int               // round-robin cursor into tenants
	queued  int               // total queued jobs, all tenants
	running int
	depth   int // per-tenant queue-depth limit

	inflight map[string]*job // spec hash → queued-or-running job (single flight)
	jobs     map[string]*job // job id → job, for async polling
	finished []string        // finished job ids, oldest first, for eviction
	retain   int             // finished jobs kept pollable

	closed  bool
	wg      sync.WaitGroup
	cache   *cache // re-checked by submit; lock order is s.mu, then cache.mu
	execute func(*job) ([]byte, error)
}

func newScheduler(workers, depth, retain int, c *cache, execute func(*job) ([]byte, error)) *scheduler {
	s := &scheduler{
		queues:   map[string][]*job{},
		inflight: map[string]*job{},
		jobs:     map[string]*job{},
		depth:    depth,
		retain:   retain,
		cache:    c,
		execute:  execute,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// newJobID returns an unguessable job id, so one tenant cannot
// enumerate another's submissions by counting.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: job id: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// submit enqueues a spec for a tenant, or returns the already-queued or
// running job for the same hash (coalesced reports that). Coalescing is
// global across tenants — like the result cache, it banks on
// determinism: the attached tenant gets the same bytes it would have
// computed, without consuming a queue slot.
//
// The caller has already missed the result cache, but a job for the
// hash may have finished since: execute caches the document before the
// worker clears the in-flight entry under s.mu. So with no job in
// flight submit looks in the cache again, and a hit returns the
// document and no job. A failed job caches nothing, so its spec is
// queued again.
func (s *scheduler) submit(tenant, kind, hash string, spec core.ExperimentSpec) (j *job, doc []byte, coalesced bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, false, ErrClosed
	}
	if j, ok := s.inflight[hash]; ok {
		j.tenants[tenant] = struct{}{}
		return j, nil, true, nil
	}
	if doc, ok := s.cache.get(hash); ok {
		return nil, doc, false, nil
	}
	if len(s.queues[tenant]) >= s.depth {
		return nil, nil, false, fmt.Errorf("%w: %d jobs queued for %q", ErrQueueFull, len(s.queues[tenant]), tenant)
	}
	var id string
	for {
		if id, err = newJobID(); err != nil {
			return nil, nil, false, err
		}
		if _, dup := s.jobs[id]; !dup {
			break
		}
	}
	j = &job{
		id:      id,
		tenant:  tenant,
		tenants: map[string]struct{}{tenant: {}},
		kind:    kind,
		hash:    hash,
		spec:    spec,
		done:    make(chan struct{}),
		status:  statusQueued,
	}
	if _, seen := s.queues[tenant]; !seen {
		s.tenants = append(s.tenants, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], j)
	s.queued++
	s.inflight[hash] = j
	s.jobs[j.id] = j
	s.cond.Signal()
	return j, nil, false, nil
}

// lookup returns a job by id, but only to a tenant that submitted or
// coalesced onto it.
func (s *scheduler) lookup(id, tenant string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	if _, attached := j.tenants[tenant]; !attached {
		return nil, false
	}
	return j, true
}

// pick pops the next job in tenant rotation, dropping the tenant from
// the rotation when its queue drains. Callers hold s.mu.
func (s *scheduler) pick() *job {
	n := len(s.tenants)
	for i := 0; i < n; i++ {
		idx := (s.rr + i) % n
		tenant := s.tenants[idx]
		q := s.queues[tenant]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		if len(q) == 1 {
			delete(s.queues, tenant)
			s.tenants = append(s.tenants[:idx], s.tenants[idx+1:]...)
			s.rr = idx // the next tenant shifted into this slot
		} else {
			s.queues[tenant] = q[1:]
			s.rr = idx + 1
		}
		s.queued--
		return j
	}
	return nil
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			j = s.pick()
			if j != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		if j == nil {
			s.mu.Unlock()
			return
		}
		j.status = statusRunning
		s.running++
		s.mu.Unlock()

		t0 := time.Now()
		doc, err := s.runOne(j)

		// Commit the terminal state under the lock: pollers read
		// j.status through it while the job is live, and the close of
		// j.done below publishes the fields to everyone already waiting.
		s.mu.Lock()
		if err != nil {
			j.status = statusFailed
			j.errMsg = err.Error()
		} else {
			j.status = statusDone
			j.doc = doc
		}
		j.elapsed = time.Since(t0)
		j.spec = nil // the doc carries the canonical spec; free the rest
		s.running--
		delete(s.inflight, j.hash)
		s.retire(j)
		s.mu.Unlock()
		close(j.done)
	}
}

// retire keeps the finished job pollable until the retention bound
// pushes it out, so the jobs map cannot grow without limit in a
// long-running daemon. Callers hold s.mu.
func (s *scheduler) retire(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.retain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// runOne executes the job's spec, converting panics into errors so one
// poisonous submission cannot take a worker down.
func (s *scheduler) runOne(j *job) (doc []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			doc, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return s.execute(j)
}

// close stops intake and wakes idle workers; drain waits for the pool.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *scheduler) drain() {
	s.wg.Wait()
}

// depthStats reports queue occupancy for the stats endpoint.
func (s *scheduler) depthStats() (queued, running, tenants int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running, len(s.tenants)
}
