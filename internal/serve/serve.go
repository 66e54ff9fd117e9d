// Package serve is the sweep-as-a-service subsystem behind `syncron-sim
// serve`: a long-running job daemon that accepts run specs (or whole sweep
// grids) over HTTP and turns the content-addressed result cache from a batch
// convenience into a serving tier.
//
// The design leans on PR 5's invariant that every run is a pure function of
// its SpecKey:
//
//   - cache hits are answered at submit time with zero simulation;
//   - identical in-flight specs are single-flighted — N concurrent requests
//     for the same spec trigger exactly one simulation, whose result fans out
//     to every waiting job;
//   - misses go onto a bounded FIFO queue with all-or-nothing admission: a
//     job either gets every queue slot it needs or is rejected with
//     ErrQueueFull (HTTP 503 + Retry-After), so a traffic spike degrades into
//     fast rejections instead of unbounded memory growth;
//   - a SpecRunner-backed worker pool drains the queue under the server's
//     context, so shutdown and job cancellation propagate as contexts.
//
// Jobs are inspectable (GET /jobs/{id}), streamable (GET /jobs/{id}/events,
// NDJSON or SSE), cancellable (DELETE /jobs/{id}), and deduplicated: the job
// ID is a hash of the resolved SpecKey sequence, so resubmitting identical
// work returns the existing job. See ARCHITECTURE.md "Serving".
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"syncron"
)

// Sentinel errors mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull reports that admission would overflow the bounded queue.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining reports that the server no longer accepts work.
	ErrDraining = errors.New("serve: server is draining")
)

// Options configures a Server.
type Options struct {
	// Cache, when non-nil, answers repeat specs without simulation and
	// persists every newly simulated result (the serving memoization tier).
	Cache syncron.ResultCache
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued (admitted but not yet running) runs; above it
	// submissions fail with ErrQueueFull (default 256).
	QueueDepth int
	// RetryAfter is the backoff hint attached to backpressure rejections
	// (default 1s).
	RetryAfter time.Duration
	// MaxJobs bounds retained job records; beyond it the oldest terminal
	// jobs are evicted (default 1024). Live jobs are never evicted.
	MaxJobs int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	return o
}

// taskOwner is one job's claim on a task: the result lands at specs[index].
type taskOwner struct {
	job   *Job
	index int
}

// task is one spec's single-flight execution slot. All fields except key and
// spec are guarded by the server mutex; a task is reachable from the inflight
// map (by key) and the queue (by pop) only.
type task struct {
	key  string
	spec syncron.RunSpec // seed-resolved

	owners  []taskOwner
	active  int  // owners whose job has not been canceled
	running bool // a worker has claimed it

	// ctx is canceled when every owning job has been canceled (while still
	// queued) or the server hard-stops; the worker threads it into
	// SpecRunner.RunContext.
	ctx    context.Context
	cancel context.CancelFunc
}

// Server is the job daemon: scheduler state plus an HTTP facade (Handler).
type Server struct {
	opt   Options
	start time.Time

	// baseCtx is the lifetime of all simulation work; stop cancels it on
	// forced (post-drain-deadline) shutdown.
	baseCtx context.Context
	stop    context.CancelFunc

	queue chan *task // sends only under mu, after a capacity check
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string // job IDs in submission order, for listing and eviction
	inflight map[string]*task

	// Metrics counters (see Metrics for meanings).
	jobsSubmitted atomic.Uint64
	jobsDeduped   atomic.Uint64
	jobsRejected  atomic.Uint64
	jobsCanceled  atomic.Uint64
	specsAccepted atomic.Uint64
	specHits      atomic.Uint64
	specShares    atomic.Uint64
	specsSim      atomic.Uint64
	specsFailed   atomic.Uint64
	specsCanceled atomic.Uint64
	simEvents     atomic.Uint64
	inFlight      atomic.Int64
}

// New builds a server and starts its worker pool. Callers must eventually
// call Shutdown.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		start:    time.Now(),
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *task, opt.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]*task{},
	}
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit canonicalizes one request into a job. The returned bool is true for
// a newly created job and false when the identical job already existed
// (dedup). Admission is all-or-nothing: on ErrQueueFull nothing was enqueued
// and no job was created.
func (s *Server) Submit(req SubmitRequest) (*Job, bool, error) {
	specs, err := req.expand()
	if err != nil {
		return nil, false, err
	}
	resolved := syncron.ResolveSeeds(specs, req.BaseSeed)
	keys := make([]string, len(resolved))
	for i, spec := range resolved {
		keys[i] = syncron.SpecKey(spec)
	}
	id := jobID(keys)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.jobsRejected.Add(1)
		return nil, false, ErrDraining
	}
	if j, ok := s.jobs[id]; ok && j.Status().State != StateCanceled {
		// Identical work is the same job, whatever its state: callers follow
		// the existing stream or read the finished result. A canceled job is
		// the exception — resubmission means "run it after all", so it is
		// replaced below under the same ID.
		s.jobsDeduped.Add(1)
		return j, false, nil
	}

	// Classify every spec before mutating anything, so admission can reject
	// the whole job atomically.
	type hit struct {
		index int
		res   syncron.RunResult
	}
	var hits []hit
	attach := map[int]*task{}  // index -> existing in-flight task
	newIdx := map[string]int{} // key -> first index needing a new task
	dupOf := map[int]string{}  // index -> key of an earlier in-job duplicate
	var news []int             // indexes needing new tasks, in grid order
	for i, key := range keys {
		if t, ok := s.inflight[key]; ok {
			attach[i] = t
			continue
		}
		if _, ok := newIdx[key]; ok {
			dupOf[i] = key
			continue
		}
		if s.opt.Cache != nil {
			if payload, ok := s.opt.Cache.Get(key); ok {
				if res, err := syncron.DecodeCachedResult(payload); err == nil {
					res.Key = key
					res.Cached = true
					hits = append(hits, hit{index: i, res: res})
					continue
				}
			}
		}
		newIdx[key] = i
		news = append(news, i)
	}
	if len(s.queue)+len(news) > cap(s.queue) {
		s.jobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}

	// Commit: create the job, deliver cache hits, attach to in-flight tasks,
	// and enqueue the misses. Queue sends cannot block: sends only happen
	// here, under mu, after the capacity check above.
	job := newJob(id, resolved, keys, s.baseCtx, time.Now())
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.evictLocked()
	s.jobsSubmitted.Add(1)
	s.specsAccepted.Add(uint64(len(resolved)))
	job.mu.Lock()
	job.appendEventLocked(Event{Type: "submitted", Index: -1})
	job.mu.Unlock()

	created := map[string]*task{}
	for _, idx := range news {
		t := &task{key: keys[idx], spec: resolved[idx]}
		t.ctx, t.cancel = context.WithCancel(s.baseCtx)
		t.owners = []taskOwner{{job: job, index: idx}}
		t.active = 1
		s.inflight[t.key] = t
		created[t.key] = t
		s.queue <- t
	}
	for i, key := range dupOf {
		t := created[key]
		t.owners = append(t.owners, taskOwner{job: job, index: i})
		t.active++
	}
	for i, t := range attach {
		if t.active == 0 && !t.running && t.ctx.Err() != nil {
			// Every previous owner canceled while the task sat in the queue;
			// revive it with a fresh context before the worker pops it.
			t.ctx, t.cancel = context.WithCancel(s.baseCtx)
		}
		t.owners = append(t.owners, taskOwner{job: job, index: i})
		t.active++
		s.specShares.Add(1)
	}
	for _, h := range hits {
		s.specHits.Add(1)
		job.deliver(h.index, h.res)
	}
	return job, true, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
func (s *Server) evictLocked() {
	if len(s.order) <= s.opt.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.opt.MaxJobs
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil {
			if st := j.Status(); st.State == StateDone || st.State == StateCanceled {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every retained job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels a job: every unfinished run is reported as canceled, and
// queued tasks owned solely by this job are canceled via context so workers
// skip them. A simulation already in flight is not preempted (the engine is
// not preemptible); its result still lands in the cache for future requests.
// The second return reports whether the job existed; the first whether this
// call canceled it (false when already terminal).
func (s *Server) Cancel(id string) (bool, bool) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false, false
	}
	if !job.cancelJob() {
		return false, true
	}
	s.jobsCanceled.Add(1)
	s.mu.Lock()
	for _, t := range s.inflight {
		for _, o := range t.owners {
			if o.job == job {
				t.active--
			}
		}
		if t.active <= 0 && !t.running {
			t.cancel()
		}
	}
	s.mu.Unlock()
	s.specsCanceled.Add(uint64(job.Status().Canceled))
	return true, true
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.runTask(t)
	}
}

// runTask executes one single-flight task and fans its result out to every
// owning job. Tasks whose owners all canceled while queued are skipped (their
// jobs already reported the runs as canceled).
func (s *Server) runTask(t *task) {
	s.mu.Lock()
	if t.active <= 0 {
		delete(s.inflight, t.key)
		s.mu.Unlock()
		t.cancel()
		return
	}
	t.running = true
	ctx := t.ctx
	owners := append([]taskOwner(nil), t.owners...)
	s.mu.Unlock()

	for _, o := range owners {
		o.job.runStarted(o.index)
	}
	s.inFlight.Add(1)
	res := syncron.SpecRunner{Workers: 1, Cache: s.opt.Cache}.
		RunContext(ctx, []syncron.RunSpec{t.spec})[0]
	s.inFlight.Add(-1)

	switch {
	case res.Cached:
		s.specHits.Add(1)
	case ctx.Err() != nil && res.Err != "":
		s.specsCanceled.Add(1)
	default:
		s.specsSim.Add(1)
		s.simEvents.Add(res.Events)
		if res.Err != "" {
			s.specsFailed.Add(1)
		}
	}

	s.mu.Lock()
	delete(s.inflight, t.key)
	owners = append(owners[:0], t.owners...) // owners may have grown while running
	s.mu.Unlock()
	t.cancel()
	for _, o := range owners {
		o.job.deliver(o.index, res)
	}
}

// Shutdown drains the server: no new jobs are admitted, queued and running
// work is finished and persisted to the cache, then the workers exit. If ctx
// expires first, the remaining queued runs are canceled via context (reported
// on their jobs as canceled, never dropped) and Shutdown returns ctx.Err()
// without waiting for in-flight simulations, which are not preemptible.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop()
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Metrics is the operational snapshot served at GET /metrics.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	InFlight      int64   `json:"in_flight"`
	Draining      bool    `json:"draining"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsDeduped   uint64 `json:"jobs_deduped"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	JobsActive    int    `json:"jobs_active"`

	SpecsAccepted      uint64 `json:"specs_accepted"`
	CacheHits          uint64 `json:"cache_hits"`
	SingleFlightShares uint64 `json:"single_flight_shares"`
	Simulated          uint64 `json:"simulated"`
	RunsFailed         uint64 `json:"runs_failed"`
	RunsCanceled       uint64 `json:"runs_canceled"`

	// CacheHitRatio is hits / (hits + shares + simulated): the fraction of
	// resolved runs that needed no fresh simulation of their own.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// SimEvents is the total discrete-event count executed by the engine on
	// behalf of this server; EventsPerSec divides it by uptime.
	SimEvents    uint64  `json:"sim_events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.opt.Workers,
		QueueDepth:    len(s.queue),
		QueueCap:      cap(s.queue),
		InFlight:      s.inFlight.Load(),

		JobsSubmitted: s.jobsSubmitted.Load(),
		JobsDeduped:   s.jobsDeduped.Load(),
		JobsRejected:  s.jobsRejected.Load(),
		JobsCanceled:  s.jobsCanceled.Load(),

		SpecsAccepted:      s.specsAccepted.Load(),
		CacheHits:          s.specHits.Load(),
		SingleFlightShares: s.specShares.Load(),
		Simulated:          s.specsSim.Load(),
		RunsFailed:         s.specsFailed.Load(),
		RunsCanceled:       s.specsCanceled.Load(),
		SimEvents:          s.simEvents.Load(),
	}
	s.mu.Lock()
	m.Draining = s.draining
	for _, j := range s.jobs {
		if st := j.Status(); st.State == StateQueued || st.State == StateRunning {
			m.JobsActive++
		}
	}
	s.mu.Unlock()
	if served := m.CacheHits + m.SingleFlightShares + m.Simulated; served > 0 {
		m.CacheHitRatio = float64(m.CacheHits) / float64(served)
	}
	if m.UptimeSeconds > 0 {
		m.EventsPerSec = float64(m.SimEvents) / m.UptimeSeconds
	}
	return m
}
