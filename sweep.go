package syncron

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// RunSpec names one simulation: a registered workload on one configuration.
type RunSpec struct {
	// Workload is a name registered with RegisterWorkload (see WorkloadNames).
	Workload string `json:"workload"`
	// Config is the system configuration; a zero Scheme means SchemeSynCron
	// and a zero Seed lets the executor assign a deterministic per-run seed.
	Config Config `json:"config"`
	// Params tunes the workload.
	Params WorkloadParams `json:"params"`
}

// Validate returns an error naming the first rule spec breaks, or nil: a
// registered workload; a known scheme, topology, memory model, memory
// technology and overflow policy; no negative machine parameter; at most
// MaxUnits units of MaxCoresPerUnit cores; no negative WorkloadParams value
// and a finite Scale; and no coherence-lock scheme (mesi-lock, ttas, htl),
// which models only locks and barriers, on a workload that issues semaphore
// or condition-variable ops. Execute, SpecRunner, the CLI and serve call it
// first.
func (spec RunSpec) Validate() error {
	if _, ok := LookupWorkload(spec.Workload); !ok {
		return fmt.Errorf("unknown workload %q (see WorkloadNames or `syncron-sim list`)", spec.Workload)
	}
	if err := spec.Config.validate(); err != nil {
		return err
	}
	if s := spec.Config.Scheme; (s == SchemeMESILock || s == SchemeTTAS || s == SchemeHTL) && issuesSemCond(spec.Workload) {
		return fmt.Errorf("syncron: scheme %s models only locks and barriers, but workload %q issues semaphore or condition-variable ops", s, spec.Workload)
	}
	return spec.Params.validate()
}

// RunResult is the structured outcome of executing one RunSpec.
type RunResult struct {
	Spec RunSpec      `json:"spec"`
	Kind WorkloadKind `json:"kind,omitempty"`
	// Seed is the seed the run actually used.
	Seed uint64 `json:"seed"`

	// Makespan is when the last core finished, in picoseconds.
	Makespan Time `json:"makespan_ps"`
	// Ops is the number of logical operations performed.
	Ops uint64 `json:"ops"`
	// OpsPerMs is throughput in operations per millisecond (Figure 11's unit).
	OpsPerMs float64 `json:"ops_per_ms"`
	// MopsPerSec is throughput in million operations per second.
	MopsPerSec float64 `json:"mops_per_sec"`

	// Energy breakdown in picojoules.
	CacheEnergyPJ   float64 `json:"cache_energy_pj"`
	NetworkEnergyPJ float64 `json:"network_energy_pj"`
	MemoryEnergyPJ  float64 `json:"memory_energy_pj"`

	// RowHitRate is the fraction of DRAM accesses that hit an open row buffer
	// (bank memory model only; always 0 under the flat model).
	RowHitRate float64 `json:"row_hit_rate,omitempty"`

	// Data movement in bytes; BytesAcrossUnits counts every inter-unit link
	// traversed (route length matters on multi-hop topologies).
	BytesInsideUnits uint64 `json:"bytes_inside_units"`
	BytesAcrossUnits uint64 `json:"bytes_across_units"`
	// AvgRouteLinks is the mean inter-unit links per cross-unit message.
	AvgRouteLinks float64 `json:"avg_route_links,omitempty"`

	// SynCron-specific statistics (zero for other schemes).
	STOccupancyMax     float64 `json:"st_occupancy_max"`
	STOccupancyMean    float64 `json:"st_occupancy_mean"`
	OverflowedFraction float64 `json:"overflowed_fraction"`

	// Events is the number of discrete-event engine events the run executed —
	// the throughput numerator of events/sec macro-benchmarks.
	Events uint64 `json:"events,omitempty"`

	// Key is the SpecKey of the spec as REQUESTED (before Execute resolves
	// config defaults into Spec.Config), set by SpecRunner.Run on every spec
	// Validate accepts. It is the run's cache identity: CacheResult needs it
	// because the requested spec is no longer recoverable from the resolved
	// one. Empty on results from a bare Execute call.
	Key string `json:"spec_key,omitempty"`

	// Cached reports that this result was served from a ResultCache rather
	// than simulated. It is observability metadata of one lookup, not part of
	// the result, so it is never serialized: the same payload renders
	// identically whether it was simulated or replayed.
	Cached bool `json:"-"`

	// GridIndex is the run's position in the spec list its sweep ran, so
	// serve job streams (which see completion order) can re-anchor a result.
	// It is bookkeeping of one sweep, not part of the result: the cache
	// strips it, and Execute (which sees no grid) leaves it 0.
	GridIndex int `json:"grid_index"`

	// Err is non-empty when the run failed (a spec Validate rejects, failed
	// functional check, simulator panic, a cache-only miss, or fail-fast
	// cancellation).
	Err string `json:"error,omitempty"`
}

// TotalEnergyPJ returns the summed energy.
func (r RunResult) TotalEnergyPJ() float64 {
	return r.CacheEnergyPJ + r.NetworkEnergyPJ + r.MemoryEnergyPJ
}

// Execute validates spec, runs it to completion and captures the structured
// result. Failures (a spec Validate rejects, simulator panics) are reported
// in RunResult.Err rather than propagated, so sweeps survive individual bad
// runs. A failed run leaves nothing behind: the program runner stops every
// core's program on every exit path (deadlock, program panic, checker
// violation, MaxEvents), so Execute is safe to call repeatedly from a
// long-lived service.
func Execute(spec RunSpec) (res RunResult) {
	res = RunResult{Spec: spec, Seed: spec.Config.Seed}
	if err := spec.Validate(); err != nil {
		res.Err = err.Error()
		return res
	}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Sprint(p)
		}
	}()
	w, _ := LookupWorkload(spec.Workload)
	res.Kind = w.Kind()
	sys := New(spec.Config)
	res.Spec.Config = sys.Config()
	res.Seed = sys.Machine().Cfg.Seed
	prep, err := w.Prepare(sys, spec.Params)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	rep := sys.Run()
	res.Makespan = rep.Makespan
	res.Ops = prep.Ops
	if rep.Makespan > 0 {
		res.OpsPerMs = float64(prep.Ops) / (rep.Makespan.Seconds() * 1e3)
		res.MopsPerSec = float64(prep.Ops) / rep.Makespan.Seconds() / 1e6
	}
	res.CacheEnergyPJ = rep.CacheEnergyPJ
	res.NetworkEnergyPJ = rep.NetworkEnergyPJ
	res.MemoryEnergyPJ = rep.MemoryEnergyPJ
	res.RowHitRate = rep.RowHitRate
	res.BytesInsideUnits = rep.BytesInsideUnits
	res.BytesAcrossUnits = rep.BytesAcrossUnits
	res.AvgRouteLinks = rep.AvgRouteLinks
	res.STOccupancyMax = rep.STOccupancyMax
	res.STOccupancyMean = rep.STOccupancyMean
	res.OverflowedFraction = rep.OverflowedFraction
	res.Events = rep.Events
	if prep.Check != nil {
		if err := prep.Check(); err != nil {
			res.Err = fmt.Sprintf("functional check failed: %v", err)
		}
	}
	return res
}

// Sweep enumerates a (workload x scheme x config) grid and runs it with its
// embedded SpecRunner. Every axis left empty falls back to the corresponding
// Base value, so the zero-extra-axes sweep is just Workloads x Schemes.
type Sweep struct {
	// Workloads are registry names (required).
	Workloads []string
	// Schemes to compare (default: SchemeSynCron only).
	Schemes []Scheme
	// Units, Topologies, Memories, MemModels, LinkLatencies, and STEntries
	// are optional grid axes; an empty axis uses the Base value.
	Units         []int
	Topologies    []Topology
	Memories      []MemoryTech
	MemModels     []MemModel
	LinkLatencies []Time
	STEntries     []int
	// Base is the configuration every run starts from; axis values and the
	// per-run seed are overlaid on it.
	Base Config
	// Params applies to every run.
	Params WorkloadParams
	// SpecRunner is the execution policy Run uses: workers, seed
	// derivation, caching and fail-fast.
	SpecRunner
}

// Expand enumerates the grid in a fixed order: workload outermost, then
// scheme, topology, units, memory, memory model, link latency, ST entries.
func (s Sweep) Expand() []RunSpec {
	schemes := s.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{SchemeSynCron}
	}
	topos := s.Topologies
	if len(topos) == 0 {
		topos = []Topology{s.Base.Topology}
	}
	units := s.Units
	if len(units) == 0 {
		units = []int{s.Base.Units}
	}
	mems := s.Memories
	if len(mems) == 0 {
		mems = []MemoryTech{s.Base.Memory}
	}
	models := s.MemModels
	if len(models) == 0 {
		models = []MemModel{s.Base.MemModel}
	}
	links := s.LinkLatencies
	if len(links) == 0 {
		links = []Time{s.Base.LinkLatency}
	}
	sts := s.STEntries
	if len(sts) == 0 {
		sts = []int{s.Base.STEntries}
	}
	var specs []RunSpec
	for _, w := range s.Workloads {
		for _, scheme := range schemes {
			for _, topo := range topos {
				for _, u := range units {
					for _, m := range mems {
						for _, mm := range models {
							for _, l := range links {
								for _, st := range sts {
									cfg := s.Base
									cfg.Scheme = scheme
									cfg.Topology = topo
									cfg.Units = u
									cfg.Memory = m
									cfg.MemModel = mm
									cfg.LinkLatency = l
									cfg.STEntries = st
									specs = append(specs, RunSpec{Workload: w, Config: cfg, Params: s.Params})
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}

// Run expands the grid and executes it with the embedded SpecRunner.
func (s Sweep) Run() []RunResult { return s.SpecRunner.Run(s.Expand()) }

// ResolveSeeds returns a copy of specs in which every zero Config.Seed is
// replaced by a seed derived only from baseSeed and the spec's grid index —
// the same derivation at any worker count. Seed resolution is the step that
// turns a grid definition into content-addressable work: after it, every
// spec is a pure description of one deterministic run, hashable with
// SpecKey.
func ResolveSeeds(specs []RunSpec, baseSeed uint64) []RunSpec {
	out := make([]RunSpec, len(specs))
	for i, spec := range specs {
		if spec.Config.Seed == 0 {
			spec.Config.Seed = deriveSeed(baseSeed, i)
		}
		out[i] = spec
	}
	return out
}

// SpecRunner is the execution policy of a sweep: worker-pool width, seed
// derivation, and result caching. Sweep embeds one and runs it over
// Sweep.Expand; the CLI and the paper artifacts run it directly on spec
// lists they build or post-process themselves.
type SpecRunner struct {
	// Workers bounds simultaneous runs (default GOMAXPROCS).
	Workers int
	// BaseSeed anchors per-run seed derivation (see ResolveSeeds).
	BaseSeed uint64
	// Cache, when non-nil, serves runs whose SpecKey it holds without
	// simulating them and stores every newly simulated successful result.
	Cache ResultCache
	// CacheOnly reports a run missing from Cache as failed instead of
	// simulating it (`figures -from DIR`).
	CacheOnly bool
	// FailFast cancels unstarted runs once any run fails; they report an Err
	// naming that failure. Which runs it cancels depends on worker timing.
	FailFast bool
}

// Run resolves seeds over the spec list and executes it on the worker pool.
// It returns one result per spec in spec order, result i carrying GridIndex
// i. Cached results are returned without simulating; newly simulated
// successful results are stored back (best-effort — a failed cache write is
// ignored).
func (r SpecRunner) Run(specs []RunSpec) []RunResult {
	return r.RunContext(context.Background(), specs)
}

// RunContext is Run under a caller-supplied context: once ctx is canceled
// (or its deadline passes), runs that have not started yet are not simulated.
// Cancellation granularity is between runs — a simulation already in flight
// completes (the discrete-event engine is not preemptible) and its result is
// still returned and cached. Canceled runs are reported, never dropped: the
// returned slice always has one result per spec, in spec order, and a
// canceled run carries a non-empty Err naming the context error, so callers
// can tell "not run" apart from "lost".
func (r SpecRunner) RunContext(ctx context.Context, specs []RunSpec) []RunResult {
	resolved := ResolveSeeds(specs, r.BaseSeed)

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(resolved) {
		workers = len(resolved)
	}
	results := make([]RunResult, len(resolved))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed atomic.Pointer[RunResult]
	pos := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pos {
				results[i] = r.runOne(runCtx, resolved[i], i, &failed, cancel)
			}
		}()
	}
	for i := range resolved {
		pos <- i
	}
	close(pos)
	wg.Wait()
	return results
}

// runOne executes (or cache-serves, or cancels) one seed-resolved spec.
func (r SpecRunner) runOne(ctx context.Context, spec RunSpec, gridIndex int,
	failed *atomic.Pointer[RunResult], cancel context.CancelFunc) RunResult {
	var key string
	finish := func(res RunResult) RunResult {
		res.Key = key
		res.GridIndex = gridIndex
		if r.FailFast && res.Err != "" {
			if failed.CompareAndSwap(nil, &res) {
				cancel()
			}
		}
		return res
	}
	// Validate comes first: a spec it rejects is never served from a cache
	// holding a result under its key, and SpecKey cannot encode a NaN Scale.
	if err := spec.Validate(); err != nil {
		return finish(RunResult{Spec: spec, Seed: spec.Config.Seed, Err: err.Error()})
	}
	// The key hashes the spec as requested, before Execute resolves config
	// defaults into the result; it is computed whether or not a cache is
	// wired so cached and uncached sweeps serialize identically.
	key = SpecKey(spec)
	if ctx.Err() != nil {
		res := RunResult{Spec: spec, Seed: spec.Config.Seed, Key: key, GridIndex: gridIndex}
		// A fail-fast failure is always recorded before the internal cancel, so
		// a done context with no recorded failure means the caller's RunContext
		// context was canceled or timed out.
		if first := failed.Load(); r.FailFast && first != nil {
			res.Err = fmt.Sprintf("canceled by fail-fast: %s under %s failed: %s",
				first.Spec.Workload, first.Spec.Config.Scheme, first.Err)
		} else {
			res.Err = fmt.Sprintf("canceled: %v", ctx.Err())
		}
		return res
	}
	if r.Cache != nil {
		if payload, ok := r.Cache.Get(key); ok {
			if res, err := DecodeCachedResult(payload); err == nil {
				res.Cached = true
				return finish(res)
			}
		}
	}
	if r.CacheOnly {
		res := RunResult{Spec: spec, Seed: spec.Config.Seed}
		if r.Cache == nil {
			res.Err = "cache-only run without a cache"
		} else {
			res.Err = fmt.Sprintf("not in cache (key %s); run the sweep with -cache first", key)
		}
		return finish(res)
	}
	res := Execute(spec)
	res.Key = key
	if r.Cache != nil && res.Err == "" {
		if payload, err := encodeCachedResult(res); err == nil {
			_ = r.Cache.Put(key, payload) // best-effort: a failed write only costs a future miss
		}
	}
	return finish(res)
}

// deriveSeed mixes baseSeed and the run index (splitmix64 finalizer) into a
// non-zero per-run seed.
func deriveSeed(baseSeed uint64, i int) uint64 {
	z := baseSeed + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// ResultSet is a slice of run results with grouping and join helpers — the
// substrate the analysis layer (analysis.go) builds its paper-figure views
// on. Methods never mutate the receiver; they return filtered views backed by
// fresh slices.
type ResultSet []RunResult

// Ok returns the runs that completed without error.
func (rs ResultSet) Ok() ResultSet {
	return rs.Filter(func(r RunResult) bool { return r.Err == "" })
}

// Failed returns the runs that reported an error.
func (rs ResultSet) Failed() ResultSet {
	return rs.Filter(func(r RunResult) bool { return r.Err != "" })
}

// Filter returns the runs for which keep reports true.
func (rs ResultSet) Filter(keep func(RunResult) bool) ResultSet {
	var out ResultSet
	for _, r := range rs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// Workloads returns the distinct workload names in first-seen order.
func (rs ResultSet) Workloads() []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rs {
		if !seen[r.Spec.Workload] {
			seen[r.Spec.Workload] = true
			names = append(names, r.Spec.Workload)
		}
	}
	return names
}

// Schemes returns the distinct schemes in first-seen order.
func (rs ResultSet) Schemes() []Scheme {
	seen := map[Scheme]bool{}
	var schemes []Scheme
	for _, r := range rs {
		s := r.Spec.Config.Scheme
		if !seen[s] {
			seen[s] = true
			schemes = append(schemes, s)
		}
	}
	return schemes
}

// ByWorkload groups the runs by workload name.
func (rs ResultSet) ByWorkload() map[string]ResultSet {
	out := map[string]ResultSet{}
	for _, r := range rs {
		out[r.Spec.Workload] = append(out[r.Spec.Workload], r)
	}
	return out
}

// gridKey identifies the grid point a run belongs to with the per-run seed
// and any axes zeroed by strip removed, so runs differing only in those axes
// land on the same key. It is the single key builder behind joinOn (every
// baseline join), curves (every curve grouping) and the rows of
// SpeedupVsBaseline.
func gridKey(r RunResult, strip func(*Config)) string {
	cfg := r.Spec.Config
	cfg.Seed = 0
	strip(&cfg)
	key, err := json.Marshal(struct {
		W string
		C Config
		P WorkloadParams
	}{r.Spec.Workload, cfg, r.Spec.Params})
	if err != nil {
		panic(fmt.Sprintf("syncron: marshaling grid key: %v", err))
	}
	return string(key)
}

// BaselinePair joins one successful run with the baseline run of the same
// workload and grid point.
type BaselinePair struct {
	Run      RunResult
	Baseline RunResult
}

// JoinBaseline pairs every successful run with the successful baseline-scheme
// run of the same workload and configuration (all config axes except scheme
// and seed must match). It fails if a run has no baseline counterpart: the
// sweep did not include the baseline scheme at that grid point, or that
// baseline run failed.
func (rs ResultSet) JoinBaseline(baseline Scheme) ([]BaselinePair, error) {
	return joinOn(rs, baseline, func(c *Config) *Scheme { return &c.Scheme })
}

// joinOn is the one baseline join of the analysis layer: it pairs every
// successful run, in result order, with the successful run of the same
// workload and grid point whose axis equals base. The axis and the seed are
// left out of the join key, so runs differing only in them are joined. It
// fails if no run sits on base, or if a run has no counterpart there.
func joinOn[T comparable](results []RunResult, base T, axis func(*Config) *T) ([]BaselinePair, error) {
	ok := ResultSet(results).Ok()
	key := func(r RunResult) string {
		return gridKey(r, func(c *Config) {
			var zero T
			*axis(c) = zero
		})
	}
	bases := map[string]RunResult{}
	for _, r := range ok {
		if *axis(&r.Spec.Config) == base {
			bases[key(r)] = r
		}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("syncron: no successful \"%v\" runs to use as baseline", base)
	}
	pairs := make([]BaselinePair, 0, len(ok))
	for _, r := range ok {
		b, found := bases[key(r)]
		if !found {
			return nil, fmt.Errorf("syncron: %s under %v has no successful \"%v\" baseline at the same grid point",
				r.Spec.Workload, *axis(&r.Spec.Config), base)
		}
		pairs = append(pairs, BaselinePair{Run: r, Baseline: b})
	}
	return pairs, nil
}

// curves groups rs into the runs that differ only in the axes strip zeroes
// (and the seed): one group per remaining grid point, groups and the runs in
// each in first-seen order. Every curve view normalizes within one group.
func curves(rs ResultSet, strip func(*Config)) []ResultSet {
	index := map[string]int{}
	var out []ResultSet
	for _, r := range rs {
		key := gridKey(r, strip)
		i, seen := index[key]
		if !seen {
			i = len(out)
			index[key] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], r)
	}
	return out
}

// WriteJSON emits results as indented JSON.
func WriteJSON(w io.Writer, results []RunResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// csvHeader is the column order of WriteCSV.
var csvHeader = []string{"workload", "kind", "scheme", "topology", "units",
	"cores_per_unit", "memory", "mem_model", "link_latency_ps", "st_entries",
	"seed", "makespan_ps", "ops", "ops_per_ms", "mops_per_sec",
	"cache_energy_pj", "network_energy_pj", "memory_energy_pj",
	"row_hit_rate", "bytes_inside_units", "bytes_across_units",
	"avg_route_links", "st_occupancy_max", "st_occupancy_mean",
	"overflowed_fraction", "error"}

// WriteCSV emits results as one flat CSV row per run.
func WriteCSV(w io.Writer, results []RunResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range results {
		cfg := r.Spec.Config
		row := []string{
			r.Spec.Workload, string(r.Kind), string(cfg.Scheme), string(cfg.Topology),
			strconv.Itoa(cfg.Units), strconv.Itoa(cfg.CoresPerUnit),
			cfg.Memory.String(), string(cfg.MemModel),
			strconv.FormatInt(int64(cfg.LinkLatency), 10),
			strconv.Itoa(cfg.STEntries), strconv.FormatUint(r.Seed, 10),
			strconv.FormatInt(int64(r.Makespan), 10), strconv.FormatUint(r.Ops, 10),
			f(r.OpsPerMs), f(r.MopsPerSec), f(r.CacheEnergyPJ), f(r.NetworkEnergyPJ),
			f(r.MemoryEnergyPJ), f(r.RowHitRate), strconv.FormatUint(r.BytesInsideUnits, 10),
			strconv.FormatUint(r.BytesAcrossUnits, 10), f(r.AvgRouteLinks),
			f(r.STOccupancyMax), f(r.STOccupancyMean), f(r.OverflowedFraction), r.Err,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
