package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"syscall"
	"time"

	"syncron"
)

// cpuNow returns the host CPU time the process has used so far: user plus
// system time, summed over its threads.
//
// The benchmark times every phase in CPU time, not wall time. On a shared
// host a runnable simulation thread waits for a CPU for a varying share of
// the wall clock: on a 2-vCPU host, wall time per sync-contended pass varied
// 5.3-6.8 s over passes where CPU time varied 5.24-5.56 s.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only on an invalid argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseTimes is the host CPU time spent in each call the benchmark times.
type phaseTimes struct {
	new, prepare, run, check, analysis time.Duration
}

func (p *phaseTimes) add(q phaseTimes) {
	p.new += q.new
	p.prepare += q.prepare
	p.run += q.run
	p.check += q.check
	p.analysis += q.analysis
}

func (p phaseTimes) total() time.Duration {
	return p.new + p.prepare + p.run + p.check + p.analysis
}

// modelCounts are the simulated statistics of a pass, read from the model
// layers after every run. They depend only on the seed.
type modelCounts struct {
	events                                       uint64
	memOps, syncOps                              uint64
	syncWaitPs, coreTimePs                       float64
	interMsgs, bytesAcross, bytesInside          uint64
	memAccesses, rowHits, rowMisses, queueStalls uint64
	cacheHits, cacheMisses                       uint64
	stOccupancyMax, overflowedSum                float64
	synCronRuns                                  int
}

// pass is the outcome of executing every run of a workload once.
type pass struct {
	// wall is the pass's wall-clock time, for the progress log.
	wall  time.Duration
	times phaseTimes
	// perRun are the times of each run, in grid order.
	perRun []phaseTimes
	// failed counts runs that finished with a non-empty Err.
	failed   int
	firstErr string
	model    modelCounts
	// digest hashes WriteJSON of every result, and the rendered figures.
	digest   [sha256.Size]byte
	paperGap float64
}

// runPass executes every run of the grids once, one at a time, then runs
// the workload's analysis on the results. tr, when non-nil, traces every
// run.
func runPass(wl workload, seed uint64, grids []grid, tr *aggTracer) (pass, error) {
	var p pass
	start := time.Now()
	byGrid := map[string][]syncron.RunResult{}
	var all []syncron.RunResult
	for _, g := range grids {
		for i, spec := range g.specs {
			res, t := runSpec(spec, i, tr, &p.model)
			p.times.add(t)
			p.perRun = append(p.perRun, t)
			if res.Err != "" {
				p.failed++
				if p.firstErr == "" {
					p.firstErr = fmt.Sprintf("%s under %s: %s", spec.Workload, spec.Config.Scheme, res.Err)
				}
			}
			byGrid[g.name] = append(byGrid[g.name], res)
			all = append(all, res)
		}
	}
	var out bytes.Buffer
	if err := syncron.WriteJSON(&out, all); err != nil {
		return p, fmt.Errorf("writing results: %w", err)
	}
	if p.failed == 0 {
		var err error
		if p.paperGap, p.times.analysis, err = analyze(wl, seed, byGrid, &out); err != nil {
			return p, err
		}
	}
	p.digest = sha256.Sum256(out.Bytes())
	p.wall = time.Since(start)
	return p, nil
}

// analyze computes paper_gap through the public analysis functions and, for
// figures-quick, renders the figures Markdown into out. It returns the host
// time both took.
func analyze(wl workload, seed uint64, byGrid map[string][]syncron.RunResult, out *bytes.Buffer) (float64, time.Duration, error) {
	start := cpuNow()
	gap, err := paperGap(wl.claims, byGrid)
	if err != nil {
		return 0, 0, err
	}
	if wl.figures {
		if err := renderFigures(seed, byGrid, out); err != nil {
			return 0, 0, err
		}
	}
	return gap, cpuNow() - start, nil
}

// renderFigures renders the figures-quick Markdown from the pass's results:
// Figures runs against a cache holding exactly those results and is forbidden
// to simulate, so it performs only the analysis views and the render.
func renderFigures(seed uint64, byGrid map[string][]syncron.RunResult, out *bytes.Buffer) error {
	cache := &memCache{entries: map[string][]byte{}}
	for _, results := range byGrid {
		for _, r := range results {
			if err := syncron.CacheResult(cache, r); err != nil {
				return err
			}
		}
	}
	opt := figuresOptions(seed)
	opt.Cache, opt.CacheOnly = cache, true
	figs, err := syncron.Figures(opt)
	if err != nil {
		return fmt.Errorf("rendering figures: %w", err)
	}
	for _, f := range figs {
		if err := f.WriteMarkdown(out); err != nil {
			return err
		}
	}
	return nil
}

// memCache is an in-memory syncron.ResultCache.
type memCache struct {
	mu      sync.Mutex
	entries map[string][]byte
}

func (c *memCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.entries[key]
	return b, ok
}

func (c *memCache) Put(key string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = payload
	return nil
}

// runSpec executes one seed-resolved spec like syncron.Execute does, timing
// each call into the simulator, and adds the run's model statistics to mc.
// Failures, panics included, are reported in the result's Err.
func runSpec(spec syncron.RunSpec, index int, tr *aggTracer, mc *modelCounts) (res syncron.RunResult, t phaseTimes) {
	res = syncron.RunResult{Spec: spec, Seed: spec.Config.Seed, Key: syncron.SpecKey(spec), GridIndex: index}
	defer func() {
		if v := recover(); v != nil {
			res.Err = fmt.Sprint(v)
		}
	}()
	sys, prep, t, err := setup(spec, tr)
	if sys != nil {
		res.Spec.Config = sys.Config()
		res.Seed = sys.Machine().Cfg.Seed
	}
	if err != nil {
		res.Err = err.Error()
		return res, t
	}
	res.Kind = prep.kind

	start := cpuNow()
	rep := sys.Run()
	t.run = cpuNow() - start

	res.Makespan = rep.Makespan
	res.Ops = prep.run.Ops
	if rep.Makespan > 0 {
		res.OpsPerMs = float64(prep.run.Ops) / (rep.Makespan.Seconds() * 1e3)
		res.MopsPerSec = float64(prep.run.Ops) / rep.Makespan.Seconds() / 1e6
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
	mc.addRun(sys, rep)
	if tr != nil {
		tr.endRun(rep.Makespan)
	}

	start = cpuNow()
	err = check(prep.run)
	t.check = cpuNow() - start
	if err != nil {
		res.Err = fmt.Sprintf("functional check failed: %v", err)
	}
	return res, t
}

// prepared is a workload instantiated on a System.
type prepared struct {
	kind syncron.WorkloadKind
	run  *syncron.PreparedRun
}

// setup builds the system of one spec and prepares its workload on it,
// timing syncron.New and Workload.Prepare.
func setup(spec syncron.RunSpec, tr *aggTracer) (*syncron.System, prepared, phaseTimes, error) {
	var t phaseTimes
	w, ok := syncron.LookupWorkload(spec.Workload)
	if !ok {
		return nil, prepared{}, t, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	cfg := spec.Config
	if tr != nil {
		cfg.Tracer = tr
	}
	start := cpuNow()
	sys := syncron.New(cfg)
	t.new = cpuNow() - start
	start = cpuNow()
	run, err := w.Prepare(sys, spec.Params)
	t.prepare = cpuNow() - start
	return sys, prepared{kind: w.Kind(), run: run}, t, err
}

// check runs the workload's post-run functional check, if it has one.
func check(run *syncron.PreparedRun) error {
	if run.Check == nil {
		return nil
	}
	return run.Check()
}

// setupOnly builds and prepares every run of the grids without running
// them, and returns the host time syncron.New and Workload.Prepare took.
func setupOnly(grids []grid) (phaseTimes, error) {
	var total phaseTimes
	for _, g := range grids {
		for _, spec := range g.specs {
			_, _, t, err := setup(spec, nil)
			if err != nil {
				return total, fmt.Errorf("setting up %s: %w", spec.Workload, err)
			}
			total.add(t)
		}
	}
	return total, nil
}

// addRun adds one finished run's statistics, read from its report and from
// the counters of the machine's model layers.
func (mc *modelCounts) addRun(sys *syncron.System, rep syncron.Report) {
	mc.events += rep.Events
	for _, c := range rep.PerCore {
		mc.memOps += c.Reads + c.Writes
		mc.syncOps += c.SyncOps
		mc.syncWaitPs += float64(c.SyncWait)
		mc.coreTimePs += float64(c.Finish)
	}
	mc.bytesAcross += rep.BytesAcrossUnits
	mc.bytesInside += rep.BytesInsideUnits
	m := sys.Machine()
	mc.interMsgs += m.Net.Stats.InterMsgs.Value()
	for _, mm := range m.Mems {
		mc.memAccesses += mm.Stats.Accesses()
		mc.rowHits += mm.Stats.RowHits.Value()
		mc.rowMisses += mm.Stats.RowMisses.Value()
		mc.queueStalls += mm.Stats.QueueStalls.Value()
	}
	for _, c := range m.Caches {
		mc.cacheHits += c.Stats.Hits.Value()
		mc.cacheMisses += c.Stats.Misses.Value()
	}
	if s := sys.Config().Scheme; s == syncron.SchemeSynCron || s == syncron.SchemeSynCronFlat {
		mc.synCronRuns++
		mc.overflowedSum += rep.OverflowedFraction
		mc.stOccupancyMax = max(mc.stOccupancyMax, rep.STOccupancyMax)
	}
}
