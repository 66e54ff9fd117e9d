package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"syncron"
)

// gateWorkload is a controllable test workload: every Prepare call increments
// prepared, signals entered (if set), and blocks on gate (if set) before
// registering a trivial one-core program. It lets tests hold a worker inside
// a simulation deterministically.
type gateWorkload struct {
	name     string
	prepared *atomic.Int32
	entered  chan struct{} // buffered; receives one token per Prepare call
	gate     chan struct{} // Prepare blocks until closed (nil = no blocking)
}

func (w *gateWorkload) Name() string               { return w.name }
func (w *gateWorkload) Kind() syncron.WorkloadKind { return "test" }
func (w *gateWorkload) Prepare(sys *syncron.System, _ syncron.WorkloadParams) (*syncron.PreparedRun, error) {
	w.prepared.Add(1)
	if w.entered != nil {
		w.entered <- struct{}{}
	}
	if w.gate != nil {
		<-w.gate
	}
	sys.Spawn(1, func(ctx *syncron.Context) { ctx.Compute(100) })
	return &syncron.PreparedRun{Ops: 1}, nil
}

var registerOnce sync.Map

func register(w syncron.Workload) {
	if _, loaded := registerOnce.LoadOrStore(w.Name(), true); !loaded {
		syncron.RegisterWorkload(w)
	}
}

// tinySpec is a fast real-workload spec (a few ms of simulation).
func tinySpec(seed uint64) syncron.RunSpec {
	return syncron.RunSpec{
		Workload: "stack",
		Config:   syncron.Config{Units: 2, CoresPerUnit: 2, Seed: seed},
		Params:   syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 4},
	}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

func submit(t *testing.T, baseURL string, req SubmitRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, baseURL, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func waitState(t *testing.T, baseURL, id string, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, baseURL, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %v", id, want)
	return JobStatus{}
}

// TestSubmitStreamResult drives the full happy path over real HTTP: submit,
// follow the NDJSON progress stream to job_done, then fetch the result and
// check it is byte-identical to the batch path (SpecRunner on the same spec).
func TestSubmitStreamResult(t *testing.T) {
	cache, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Cache: cache})

	spec := tinySpec(0) // zero seed: exercises serve-side seed resolution
	st, resp := submit(t, hs.URL, SubmitRequest{Specs: []syncron.RunSpec{spec}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.Total != 1 {
		t.Fatalf("total = %d, want 1", st.Total)
	}

	// Follow the event stream to completion.
	stream, err := http.Get(hs.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, e.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "submitted") || !strings.Contains(joined, "run_done") ||
		!strings.HasSuffix(joined, "job_done") {
		t.Fatalf("event stream %v missing lifecycle events", types)
	}

	// The served result must be byte-identical to the batch CLI's for the
	// same request.
	res, err := http.Get(hs.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", res.StatusCode)
	}
	served, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := syncron.WriteJSON(&want, syncron.SpecRunner{}.Run([]syncron.RunSpec{spec})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served result differs from batch result:\nserved: %s\nbatch:  %s", served, want.Bytes())
	}
}

// TestSingleFlight pins the core dedup contract: two jobs naming the same
// in-flight spec trigger exactly one simulation, whose result fans out to
// both; and an identical resubmission is the same job (no new work at all).
func TestSingleFlight(t *testing.T) {
	w := &gateWorkload{
		name:     "test.serve.sf",
		prepared: &atomic.Int32{},
		entered:  make(chan struct{}, 8),
		gate:     make(chan struct{}),
	}
	register(w)
	_, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 16})

	shared := syncron.RunSpec{Workload: w.name, Config: syncron.Config{Units: 1, CoresPerUnit: 1, Seed: 3}}
	a, resp := submit(t, hs.URL, SubmitRequest{Specs: []syncron.RunSpec{shared}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d, want 202", resp.StatusCode)
	}
	<-w.entered // the worker is now inside the shared spec's simulation

	// Identical submission: same job, not a new one.
	aDup, resp := submit(t, hs.URL, SubmitRequest{Specs: []syncron.RunSpec{shared}})
	if resp.StatusCode != http.StatusOK || aDup.ID != a.ID {
		t.Fatalf("duplicate submission = %d job %s, want 200 job %s", resp.StatusCode, aDup.ID, a.ID)
	}

	// A different job naming the same spec must attach to the in-flight run.
	b, resp := submit(t, hs.URL, SubmitRequest{
		Specs: []syncron.RunSpec{shared, tinySpec(5)},
	})
	if resp.StatusCode != http.StatusAccepted || b.ID == a.ID {
		t.Fatalf("job B = %d id %s (A is %s), want a distinct 202", resp.StatusCode, b.ID, a.ID)
	}

	close(w.gate)
	waitState(t, hs.URL, a.ID, StateDone)
	waitState(t, hs.URL, b.ID, StateDone)
	if got := w.prepared.Load(); got != 1 {
		t.Fatalf("shared spec simulated %d times, want 1 (single-flight)", got)
	}

	var m Metrics
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SingleFlightShares == 0 {
		t.Fatalf("metrics report no single-flight shares: %+v", m)
	}
	if m.JobsDeduped != 1 {
		t.Fatalf("metrics deduped = %d, want 1", m.JobsDeduped)
	}
}

// TestWarmResubmissionZeroSimulation restarts the server on the same cache
// directory and checks a warm submission completes at admission time without
// simulating anything.
func TestWarmResubmissionZeroSimulation(t *testing.T) {
	w := &gateWorkload{name: "test.serve.warm", prepared: &atomic.Int32{}}
	register(w)
	dir := t.TempDir()
	spec := syncron.RunSpec{Workload: w.name, Config: syncron.Config{Units: 1, CoresPerUnit: 1, Seed: 9}}

	cache1, err := syncron.DirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 1, QueueDepth: 4, Cache: cache1})
	job, created, err := s1.Submit(SubmitRequest{Specs: []syncron.RunSpec{spec}})
	if err != nil || !created {
		t.Fatalf("cold submit: created=%v err=%v", created, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := job.Status(); st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cold job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := w.prepared.Load(); got != 1 {
		t.Fatalf("cold run simulated %d times, want 1", got)
	}

	// Fresh server, same cache: the submission must be done on arrival.
	cache2, err := syncron.DirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Cache: cache2})
	st, resp := submit(t, hs.URL, SubmitRequest{Specs: []syncron.RunSpec{spec}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("warm submit = %d, want 202", resp.StatusCode)
	}
	if st.State != StateDone || st.CacheHits != 1 {
		t.Fatalf("warm submission not served from cache: %+v", st)
	}
	if got := w.prepared.Load(); got != 1 {
		t.Fatalf("warm resubmission simulated (prepared=%d)", got)
	}
	if m := s2.Metrics(); m.Simulated != 0 || m.CacheHits != 1 {
		t.Fatalf("warm metrics: %+v", m)
	}
}

// TestQueueFullBackpressure fills the 1-slot queue behind a blocked worker
// and checks saturation is rejected with 503 + Retry-After, atomically (the
// rejected job leaves no state behind), and that capacity frees up again.
func TestQueueFullBackpressure(t *testing.T) {
	w := &gateWorkload{
		name:     "test.serve.bp",
		prepared: &atomic.Int32{},
		entered:  make(chan struct{}, 8),
		gate:     make(chan struct{}),
	}
	register(w)
	_, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	mk := func(seed uint64) SubmitRequest {
		return SubmitRequest{Specs: []syncron.RunSpec{{
			Workload: w.name,
			Config:   syncron.Config{Units: 1, CoresPerUnit: 1, Seed: seed},
		}}}
	}
	a, resp := submit(t, hs.URL, mk(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d", resp.StatusCode)
	}
	<-w.entered // worker busy; the queue is now empty
	b, resp := submit(t, hs.URL, mk(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B = %d", resp.StatusCode)
	}
	_, resp = submit(t, hs.URL, mk(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 carries no Retry-After header")
	}

	close(w.gate)
	waitState(t, hs.URL, a.ID, StateDone)
	waitState(t, hs.URL, b.ID, StateDone)
	// Capacity must be available again after the drain.
	d, resp := submit(t, hs.URL, mk(4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit = %d, want 202", resp.StatusCode)
	}
	waitState(t, hs.URL, d.ID, StateDone)
}

// TestCancelReportsPendingRuns cancels a job whose first run is in flight and
// whose second is queued: both must be REPORTED as canceled (not dropped),
// the job must reach the canceled state, and the result endpoint must serve
// the canceled results.
func TestCancelReportsPendingRuns(t *testing.T) {
	w := &gateWorkload{
		name:     "test.serve.cancel",
		prepared: &atomic.Int32{},
		entered:  make(chan struct{}, 8),
		gate:     make(chan struct{}),
	}
	register(w)
	_, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	req := SubmitRequest{Specs: []syncron.RunSpec{
		{Workload: w.name, Config: syncron.Config{Units: 1, CoresPerUnit: 1, Seed: 11}},
		{Workload: w.name, Config: syncron.Config{Units: 1, CoresPerUnit: 1, Seed: 12}},
	}}
	st, resp := submit(t, hs.URL, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	<-w.entered // run 0 is in flight, run 1 queued

	del, err := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", dresp.StatusCode)
	}
	close(w.gate) // let the in-flight simulation finish in the background

	final := waitState(t, hs.URL, st.ID, StateCanceled)
	if final.Canceled != 2 || final.Completed != 2 {
		t.Fatalf("canceled job status %+v, want both runs reported canceled", final)
	}
	rres, err := http.Get(hs.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rres.Body.Close()
	var results []syncron.RunResult
	if err := json.NewDecoder(rres.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("canceled job served %d results, want 2", len(results))
	}
	for i, r := range results {
		if !strings.Contains(r.Err, "canceled") {
			t.Fatalf("result %d not reported canceled: %+v", i, r)
		}
	}
}

// TestSubmitValidation pins the 400 surface: unknown workloads, empty jobs,
// both-specs-and-sweep requests, and every spec RunSpec.Validate rejects,
// listed or expanded from a grid, are rejected before touching the queue.
func TestSubmitValidation(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	with := func(edit func(*syncron.RunSpec)) SubmitRequest {
		spec := tinySpec(1)
		edit(&spec)
		return SubmitRequest{Specs: []syncron.RunSpec{tinySpec(2), spec}}
	}
	for name, req := range map[string]SubmitRequest{
		"empty":    {},
		"unknown":  {Specs: []syncron.RunSpec{{Workload: "no.such"}}},
		"both":     {Specs: []syncron.RunSpec{tinySpec(1)}, Sweep: &SweepGrid{Workloads: []string{"stack"}}},
		"badtopo":  {Specs: []syncron.RunSpec{{Workload: "stack", Config: syncron.Config{Topology: "moebius"}}}},
		"toolarge": {Sweep: &SweepGrid{Workloads: []string{"stack"}, Units: manyUnits(maxJobSpecs + 1)}},
		"scheme":   with(func(s *syncron.RunSpec) { s.Config.Scheme = "bogus" }),
		"units":    with(func(s *syncron.RunSpec) { s.Config.Units = -1 }),
		"memory":   with(func(s *syncron.RunSpec) { s.Config.Memory = 7 }),
		"memmodel": with(func(s *syncron.RunSpec) { s.Config.MemModel = "dram9" }),
		"overflow": with(func(s *syncron.RunSpec) { s.Config.Overflow = 9 }),
		"maxunits": with(func(s *syncron.RunSpec) { s.Config.Units, s.Config.CoresPerUnit = syncron.MaxUnits+1, 1 }),
		"maxcores": with(func(s *syncron.RunSpec) { s.Config.Units, s.Config.CoresPerUnit = 1, syncron.MaxCoresPerUnit+1 }),
		"ops":      with(func(s *syncron.RunSpec) { s.Params.OpsPerCore = -3 }),
		"scale":    with(func(s *syncron.RunSpec) { s.Params.Scale = -1 }),
		"gridst":   {Sweep: &SweepGrid{Workloads: []string{"stack"}, STEntries: []int{8, -1}}},
		"semcond": with(func(s *syncron.RunSpec) {
			s.Workload, s.Config.Scheme = "semaphore", syncron.SchemeMESILock
		}),
	} {
		_, resp := submit(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if m := s.Metrics(); m.Simulated != 0 || m.SpecsAccepted != 0 || m.JobsSubmitted != 0 {
		t.Fatalf("rejected submissions reached the scheduler: %+v", m)
	}
}

func manyUnits(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestSweepGridSubmission submits a grid (not explicit specs) and checks it
// expands exactly like syncron.Sweep does in the batch path.
func TestSweepGridSubmission(t *testing.T) {
	cache, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Options{Workers: 4, QueueDepth: 32, Cache: cache})
	grid := &SweepGrid{
		Workloads: []string{"stack", "lock"},
		Schemes:   []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral},
		Base:      syncron.Config{Units: 2, CoresPerUnit: 2},
		Params:    syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 4, Rounds: 4},
	}
	st, resp := submit(t, hs.URL, SubmitRequest{Sweep: grid, BaseSeed: 7})
	if resp.StatusCode != http.StatusAccepted || st.Total != 4 {
		t.Fatalf("grid submit = %d total %d, want 202 and 4 runs", resp.StatusCode, st.Total)
	}
	waitState(t, hs.URL, st.ID, StateDone)

	res, err := http.Get(hs.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	served, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	batch := syncron.Sweep{
		Workloads:  grid.Workloads,
		Schemes:    grid.Schemes,
		Base:       grid.Base,
		Params:     grid.Params,
		SpecRunner: syncron.SpecRunner{BaseSeed: 7},
	}.Run()
	var want bytes.Buffer
	if err := syncron.WriteJSON(&want, batch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("grid result differs from batch sweep:\nserved: %s\nbatch:  %s", served, want.Bytes())
	}
}

// TestSweepGridMirrorsSweep checks SweepGrid keeps every grid field of
// syncron.Sweep (everything but the embedded execution policy), so a serve
// client can submit any grid the batch CLI can sweep.
func TestSweepGridMirrorsSweep(t *testing.T) {
	sweep := reflect.TypeOf(syncron.Sweep{})
	grid := reflect.TypeOf(SweepGrid{})
	for i := 0; i < sweep.NumField(); i++ {
		f := sweep.Field(i)
		if f.Anonymous {
			continue // the embedded SpecRunner is the server's business
		}
		g, ok := grid.FieldByName(f.Name)
		if !ok {
			t.Errorf("SweepGrid has no %s field to mirror syncron.Sweep.%s", f.Name, f.Name)
			continue
		}
		if g.Type != f.Type {
			t.Errorf("SweepGrid.%s is %v, syncron.Sweep.%s is %v", f.Name, g.Type, f.Name, f.Type)
		}
	}
}

// TestSweepGridMemModels submits a grid over both DRAM models as raw JSON
// (the handler rejects unknown fields) and checks it expands exactly like
// syncron.Sweep.
func TestSweepGridMemModels(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	body := `{"sweep": {"workloads": ["lock"], "mem_models": ["flat", "bank"],
		"base": {"scheme": "syncron", "units": 2, "cores_per_unit": 2},
		"params": {"rounds": 4}}}`
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d (%s), want 202", resp.StatusCode, msg)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 2 {
		t.Fatalf("two-model grid expanded to %d runs, want 2", st.Total)
	}
	waitState(t, hs.URL, st.ID, StateDone)

	var req SubmitRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	got, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	want := syncron.Sweep{
		Workloads: []string{"lock"},
		MemModels: []syncron.MemModel{syncron.MemModelFlat, syncron.MemModelBank},
		Base:      syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 2},
		Params:    syncron.WorkloadParams{Rounds: 4},
	}.Expand()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grid expands to\n%+v\nwant (syncron.Sweep.Expand)\n%+v", got, want)
	}
}

// TestVersionEndpoint checks /version reports the SpecKey version clients
// need for cache-compatibility decisions.
func TestVersionEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	resp, err := http.Get(hs.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v syncron.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.SpecKeyVersion != syncron.SpecKeyVersion {
		t.Fatalf("spec_key_version = %d, want %d", v.SpecKeyVersion, syncron.SpecKeyVersion)
	}
	if want := fmt.Sprintf("v%d", syncron.SpecKeyVersion); v.CacheVersion != want {
		t.Fatalf("cache_version = %q, want %q", v.CacheVersion, want)
	}
}

// TestDrainRejectsAndHealthzFlips: during shutdown the server reports
// draining on /healthz and rejects submissions with 503.
func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	_, sresp := submit(t, hs.URL, SubmitRequest{Specs: []syncron.RunSpec{tinySpec(1)}})
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", sresp.StatusCode)
	}
	if ra := sresp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
}

// TestSSEFraming checks the Accept-negotiated SSE framing of the event
// stream.
func TestSSEFraming(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	st, resp := submit(t, hs.URL, SubmitRequest{Specs: []syncron.RunSpec{tinySpec(21)}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	waitState(t, hs.URL, st.ID, StateDone)

	req, err := http.NewRequest(http.MethodGet, hs.URL+"/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content-type = %q", ct)
	}
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "event: job_done\ndata: ") {
		t.Fatalf("SSE framing missing: %q", body)
	}
}
