package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"syncron"
)

// SubmitRequest is the body of POST /jobs: either an explicit spec list or a
// sweep grid (exactly one of the two). BaseSeed anchors deterministic per-run
// seed derivation for zero-seed specs, exactly as Sweep.BaseSeed does in the
// batch CLI — so the same request always canonicalizes to the same SpecKeys,
// which is what makes job-level dedup and cross-job single-flight work.
type SubmitRequest struct {
	Specs    []syncron.RunSpec `json:"specs,omitempty"`
	Sweep    *SweepGrid        `json:"sweep,omitempty"`
	BaseSeed uint64            `json:"base_seed,omitempty"`
}

// SweepGrid mirrors the grid axes of syncron.Sweep in a JSON-friendly shape
// (no execution-policy fields: workers and cache are the server's business,
// not the client's).
type SweepGrid struct {
	Workloads     []string               `json:"workloads"`
	Schemes       []syncron.Scheme       `json:"schemes,omitempty"`
	Units         []int                  `json:"units,omitempty"`
	Topologies    []syncron.Topology     `json:"topologies,omitempty"`
	Memories      []syncron.MemoryTech   `json:"memories,omitempty"`
	MemModels     []syncron.MemModel     `json:"mem_models,omitempty"`
	LinkLatencies []syncron.Time         `json:"link_latencies_ps,omitempty"`
	STEntries     []int                  `json:"st_entries,omitempty"`
	Base          syncron.Config         `json:"base,omitempty"`
	Params        syncron.WorkloadParams `json:"params,omitempty"`
}

// maxJobSpecs bounds one job's grid so a single request cannot exhaust
// memory; it is deliberately far above the full figures grid.
const maxJobSpecs = 4096

// expand canonicalizes the request into its spec list and validates every
// spec with RunSpec.Validate. The returned specs are NOT yet seed-resolved.
func (req SubmitRequest) expand() ([]syncron.RunSpec, error) {
	if len(req.Specs) > 0 && req.Sweep != nil {
		return nil, fmt.Errorf("request names both specs and a sweep grid; use one")
	}
	specs := req.Specs
	if req.Sweep != nil {
		g := req.Sweep
		specs = syncron.Sweep{
			Workloads:     g.Workloads,
			Schemes:       g.Schemes,
			Units:         g.Units,
			Topologies:    g.Topologies,
			Memories:      g.Memories,
			MemModels:     g.MemModels,
			LinkLatencies: g.LinkLatencies,
			STEntries:     g.STEntries,
			Base:          g.Base,
			Params:        g.Params,
		}.Expand()
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty job: request needs specs or a sweep grid")
	}
	if len(specs) > maxJobSpecs {
		return nil, fmt.Errorf("job expands to %d runs (limit %d); split it", len(specs), maxJobSpecs)
	}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %v", i, err)
		}
	}
	return specs, nil
}

// jobID derives the deterministic job identity from the resolved SpecKey
// sequence: resubmitting the same canonical work is the same job.
func jobID(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("j-%x", h.Sum(nil)[:8])
}

// Job states. The lifecycle is queued -> running -> done, with canceled
// reachable from either non-terminal state; done and canceled are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// Event is one line of a job's progress stream (NDJSON or SSE data payload).
// Index is the run's grid index for run-level events and -1 for job-level
// events; Completed/Total snapshot overall progress at emission time.
type Event struct {
	Seq       int    `json:"seq"`
	TS        string `json:"ts"`
	Type      string `json:"type"` // submitted | run_start | run_done | job_done | job_canceled
	Index     int    `json:"index"`
	Key       string `json:"key,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Err       string `json:"error,omitempty"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	State     string `json:"state"`
}

// JobStatus is the wire form of a job's current state (GET /jobs/{id}).
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	CreatedAt string `json:"created_at"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	CacheHits int    `json:"cache_hits"`
	Failed    int    `json:"failed"`
	Canceled  int    `json:"canceled"`
	Events    int    `json:"events"`
}

// Job is one submitted unit of work: an ordered list of seed-resolved specs,
// their (arriving) results, and an append-only event log that any number of
// streaming subscribers can follow.
type Job struct {
	id        string
	createdAt time.Time
	specs     []syncron.RunSpec // seed-resolved
	keys      []string

	// ctx is canceled when the job is canceled (or the server hard-stops);
	// the scheduler threads it into SpecRunner.RunContext for solely-owned
	// tasks so cancellation propagates as a context, not a flag.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	results   []syncron.RunResult
	done      []bool
	completed int
	cacheHits int
	failed    int
	canceled  int
	events    []Event
	changed   chan struct{} // closed and replaced on every event append
}

func newJob(id string, specs []syncron.RunSpec, keys []string, base context.Context, now time.Time) *Job {
	ctx, cancel := context.WithCancel(base)
	return &Job{
		id:        id,
		createdAt: now,
		specs:     specs,
		keys:      keys,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		results:   make([]syncron.RunResult, len(specs)),
		done:      make([]bool, len(specs)),
		changed:   make(chan struct{}),
	}
}

// appendEventLocked records an event and wakes every stream subscriber.
// Callers hold j.mu.
func (j *Job) appendEventLocked(e Event) {
	e.Seq = len(j.events)
	e.TS = time.Now().UTC().Format(time.RFC3339Nano)
	e.Completed = j.completed
	e.Total = len(j.specs)
	e.State = j.state
	j.events = append(j.events, e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// terminalLocked reports whether the job can gain no further events.
func (j *Job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateCanceled
}

// runStarted emits a run_start event unless the run already completed (a
// cache hit delivered at submit time) or the job is no longer live.
func (j *Job) runStarted(idx int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() || j.done[idx] {
		return
	}
	if j.state == StateQueued {
		j.state = StateRunning
	}
	spec := j.specs[idx]
	j.appendEventLocked(Event{
		Type:     "run_start",
		Index:    idx,
		Key:      j.keys[idx],
		Workload: spec.Workload,
		Scheme:   string(spec.Config.Scheme),
	})
}

// deliver records one run's result. Late deliveries onto an index that was
// already resolved (job canceled, or a duplicate in-job spec) are dropped —
// first writer wins. Returns true when the delivery was recorded.
func (j *Job) deliver(idx int, res syncron.RunResult) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done[idx] {
		return false
	}
	res.GridIndex = idx
	j.results[idx] = res
	j.done[idx] = true
	j.completed++
	if res.Cached {
		j.cacheHits++
	}
	if res.Err != "" {
		j.failed++
	}
	if j.state == StateQueued {
		j.state = StateRunning
	}
	if j.completed == len(j.specs) && j.state != StateCanceled {
		j.state = StateDone
	}
	j.appendEventLocked(Event{
		Type:     "run_done",
		Index:    idx,
		Key:      j.keys[idx],
		Workload: res.Spec.Workload,
		Scheme:   string(res.Spec.Config.Scheme),
		Cached:   res.Cached,
		Err:      res.Err,
	})
	if j.state == StateDone {
		j.appendEventLocked(Event{Type: "job_done", Index: -1})
		j.cancel() // release the context; nothing left to cancel
	}
	return true
}

// cancelJob transitions the job to canceled, reporting (not dropping) every
// unfinished run as a canceled result. Returns false if the job was already
// terminal.
func (j *Job) cancelJob() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return false
	}
	j.state = StateCanceled
	for idx := range j.specs {
		if j.done[idx] {
			continue
		}
		spec := j.specs[idx]
		j.results[idx] = syncron.RunResult{
			Spec:      spec,
			Seed:      spec.Config.Seed,
			Key:       j.keys[idx],
			GridIndex: idx,
			Err:       "canceled: job canceled",
		}
		j.done[idx] = true
		j.completed++
		j.canceled++
		j.failed++
	}
	j.appendEventLocked(Event{Type: "job_canceled", Index: -1})
	j.cancel()
	return true
}

// Status snapshots the job for the status and list endpoints.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		State:     j.state,
		CreatedAt: j.createdAt.UTC().Format(time.RFC3339Nano),
		Total:     len(j.specs),
		Completed: j.completed,
		CacheHits: j.cacheHits,
		Failed:    j.failed,
		Canceled:  j.canceled,
		Events:    len(j.events),
	}
}

// Results returns the job's results in grid order, or false while the job is
// not terminal.
func (j *Job) Results() ([]syncron.RunResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.terminalLocked() {
		return nil, false
	}
	out := make([]syncron.RunResult, len(j.results))
	copy(out, j.results)
	return out, true
}

// next returns the events at sequence >= from, plus the job's terminal state
// and a channel that is closed on the next append. Stream subscribers loop:
// drain, then wait on the channel (or their request context).
func (j *Job) next(from int) (events []Event, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(j.events) {
		events = make([]Event, len(j.events)-from)
		copy(events, j.events[from:])
	}
	return events, j.terminalLocked(), j.changed
}
