// Command perfbench is the repository benchmark. It times the simulator
// through its public API on one of three closed-batch workloads and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload figures-quick --seed 1 --seconds 25 --trace 0
//
// Every run of a workload executes one at a time on one goroutine, on the
// serial event dispatcher, so one simulation thread runs and a second host
// CPU absorbs GC and OS noise. A run first executes one warm-up pass of the
// workload and discards its timings; every later pass (same seed) must give
// identical simulated events and an identical digest of the results, or the
// benchmark fails.
//
// Host times are process CPU times (see cpuNow). End-to-end metrics,
// measured with tracing off:
//
//   - cpu_s: host CPU time of a pass (New, Prepare, Run and Check of every
//     run, then the analysis), see typicalPass;
//   - setup_s: host CPU time of New plus Prepare over every run of a pass,
//     the median of repeated set-ups;
//   - events_per_cpu_s: simulated events per host CPU second inside
//     System.Run;
//   - peak_rss_mb: the process's maximum resident set, from getrusage;
//   - paper_gap: mean |ln(reproduced / paper)| over the workload's paper
//     claims (papergap.go). It depends only on the seed.
//
// Runs that fail are reported in the result's attempted and failed counts.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: figures-quick, sync-contended or graph-memory")
	seed := flag.Uint64("seed", 1, "base seed the workload's runs derive their seeds from")
	seconds := flag.Float64("seconds", 25, "host seconds of timed passes to measure (--trace 0 only)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled pass")
	flag.Parse()
	wl, ok := lookupWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *name, *traced)
		os.Exit(2)
	}
	b := &bench{wl: wl, seed: *seed, grids: wl.grids(*seed)}
	var err error
	if *traced == 1 {
		err = b.measureLayers()
	} else {
		err = b.measureEndToEnd(*seconds)
	}
	if err != nil {
		// A failed or irreproducible run still reports how many runs were
		// attempted and failed, as an incorrect result.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		if b.out.Attempted > 0 {
			b.out.Correct, b.out.Metrics = false, map[string]metric{}
			if line, err := json.Marshal(b.out); err == nil {
				fmt.Println(string(line))
			}
		}
		os.Exit(1)
	}
	for _, n := range slices.Sorted(maps.Keys(b.out.Metrics)) {
		fmt.Printf("%-26s %14.6g %s\n", n, b.out.Metrics[n].Value, b.out.Metrics[n].Unit)
	}
	line, err := json.Marshal(b.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench accumulates one invocation's passes and its result.
type bench struct {
	wl    workload
	seed  uint64
	grids []grid
	ref   *pass // the warm-up pass every later pass must reproduce
	out   result
}

// pass runs one pass and checks it: every run must succeed, and every pass
// after the first must reproduce the first one's events and result digest.
// Failures count toward the result's failed runs.
func (b *bench) pass(tr *aggTracer) (pass, error) {
	runtime.GC()
	p, err := runPass(b.wl, b.seed, b.grids, tr)
	runs := len(p.perRun)
	b.out.Attempted += runs
	b.out.Failed += p.failed
	switch {
	case err != nil:
		return p, err
	case p.failed > 0:
		return p, fmt.Errorf("%d of %d runs failed; first: %s", p.failed, runs, p.firstErr)
	case b.ref == nil:
		b.ref = &p
	case p.model.events != b.ref.model.events || p.digest != b.ref.digest:
		b.out.Failed += runs
		return p, fmt.Errorf("pass differs from the warm-up pass of the same seed: events %d vs %d",
			p.model.events, b.ref.model.events)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s pass: %d runs, %.3f s wall, %.3f s cpu, %d events\n",
		b.wl.name, runs, p.wall.Seconds(), p.times.total().Seconds(), p.model.events)
	return p, nil
}

// measureEndToEnd runs a warm-up pass, then timed passes filling about
// seconds of host time, then repeated set-ups, and reports the medians.
func (b *bench) measureEndToEnd(seconds float64) error {
	warm, err := b.pass(nil)
	if err != nil {
		return err
	}
	n := max(1, int(seconds/warm.wall.Seconds()+0.5))
	var passes []pass
	for i := 0; i < n; i++ {
		p, err := b.pass(nil)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	total, run := typicalPass(passes)
	setups, err := b.setups(warm)
	if err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	b.out.Correct = true
	b.out.Metrics = map[string]metric{
		"cpu_s":            {total, "s"},
		"setup_s":          {median(setups.total), "s"},
		"events_per_cpu_s": {float64(warm.model.events) / run, "1/s"},
		"peak_rss_mb":      {float64(ru.Maxrss) / 1024, "MiB"}, // Linux reports KiB
		"paper_gap":        {warm.paperGap, "ln-ratio"},
	}
	return nil
}

// typicalPass returns the host CPU seconds of a typical pass, in total and
// inside System.Run: for every run, the median of its times over the passes,
// summed over the runs (plus the median analysis time). A burst of host
// interference shorter than a pass slows different runs in different
// passes, so it moves these sums less than it moves the pass totals.
func typicalPass(passes []pass) (total, run float64) {
	var analysis []float64
	for _, p := range passes {
		analysis = append(analysis, p.times.analysis.Seconds())
	}
	total = median(analysis)
	for i := range passes[0].perRun {
		var totals, runs []float64
		for _, p := range passes {
			totals = append(totals, p.perRun[i].total().Seconds())
			runs = append(runs, p.perRun[i].run.Seconds())
		}
		total += median(totals)
		run += median(runs)
	}
	return total, run
}

// setupSamples are per-repetition sums of set-up host time, in seconds.
type setupSamples struct{ total, new, prepare []float64 }

// setups repeats the set-up of every run of the workload (syncron.New and
// Workload.Prepare, without running) enough times for a steady median:
// about two host seconds, at least 9 and at most 201 repetitions.
func (b *bench) setups(warm pass) (setupSamples, error) {
	var s setupSamples
	est := (warm.times.new + warm.times.prepare).Seconds()
	reps := min(201, max(9, int(2/max(est, 1e-6))))
	for i := 0; i < reps; i++ {
		runtime.GC()
		t, err := setupOnly(b.grids)
		if err != nil {
			return s, err
		}
		s.new = append(s.new, t.new.Seconds())
		s.prepare = append(s.prepare, t.prepare.Seconds())
		s.total = append(s.total, (t.new + t.prepare).Seconds())
	}
	return s, nil
}

// measureLayers runs a warm-up pass, an untraced pass read through
// runtime/metrics, and a traced pass under the CPU profiler, and reports
// the per-layer metrics.
func (b *bench) measureLayers() error {
	if _, err := b.pass(nil); err != nil {
		return err
	}
	runtime.GC()
	before := readRuntimeMetrics()
	plain, err := b.pass(nil)
	if err != nil {
		return err
	}
	after := readRuntimeMetrics()

	tr := newAggTracer()
	var prof bytes.Buffer
	runtime.GC()
	// Sample at profileHz instead of pprof's 100 Hz. The runtime keeps the
	// first rate set, so StartCPUProfile reports on stderr that it cannot
	// set its own; shares are ratios of sample counts and do not depend on
	// the sampling period the profile records.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting cpu profile: %w", err)
	}
	traced, err := b.pass(tr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares, unbucketed, err := hostShares(samples)
	if err != nil {
		return err
	}
	setups, err := b.setups(*b.ref)
	if err != nil {
		return err
	}

	mc := plain.model
	events := float64(mc.events)
	lockWait, lockHold, barrierWait := tr.meanSpan("lock_wait"), tr.meanSpan("lock_hold"), tr.meanSpan("barrier_wait")
	m := map[string]metric{
		"syncron.new_s":       {median(setups.new), "s"},
		"workloads.prepare_s": {median(setups.prepare), "s"},
		"syncron.run_s":       {plain.times.run.Seconds(), "s"},
		"workloads.check_s":   {plain.times.check.Seconds(), "s"},
		"analysis.render_s":   {plain.times.analysis.Seconds(), "s"},

		"host.gc_frac":         {ratio(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU), "fraction"},
		"host.unbucketed_frac": {unbucketed, "fraction"},

		"sim.events":           {events, "count"},
		"sim.queue_depth_mean": {tr.mean("queue_depth"), "events"},

		"program.mem_ops":        {float64(mc.memOps), "count"},
		"program.sync_ops":       {float64(mc.syncOps), "count"},
		"program.ops_per_event":  {ratio(float64(mc.memOps+mc.syncOps), events), "count/event"},
		"program.sync_wait_frac": {ratio(mc.syncWaitPs, mc.coreTimePs), "fraction"},

		"network.inter_msgs":     {float64(mc.interMsgs), "count"},
		"network.bytes_across":   {float64(mc.bytesAcross), "bytes"},
		"network.bytes_inside":   {float64(mc.bytesInside), "bytes"},
		"network.link_busy_frac": {tr.linkBusyFrac(), "fraction"},

		"mem.accesses":     {float64(mc.memAccesses), "count"},
		"mem.row_hit_rate": {ratio(float64(mc.rowHits), float64(mc.rowHits+mc.rowMisses)), "fraction"},
		"mem.queue_stalls": {float64(mc.queueStalls), "count"},

		"cache.hit_rate": {ratio(float64(mc.cacheHits), float64(mc.cacheHits+mc.cacheMisses)), "fraction"},
		"cache.misses":   {float64(mc.cacheMisses), "count"},

		"sync.st_occupancy_max":     {mc.stOccupancyMax, "fraction"},
		"sync.overflowed_frac":      {ratio(mc.overflowedSum, float64(mc.synCronRuns)), "fraction"},
		"sync.lock_wait_mean_ns":    {lockWait / 1e3, "ns"},
		"sync.lock_hold_mean_ns":    {lockHold / 1e3, "ns"},
		"sync.barrier_wait_mean_ns": {barrierWait / 1e3, "ns"},

		"gc.allocs_per_event": {ratio(after.allocs-before.allocs, events), "count/event"},
		"gc.bytes_per_event":  {ratio(after.allocBytes-before.allocBytes, events), "bytes/event"},

		"trace.overhead_frac": {traced.times.run.Seconds()/plain.times.run.Seconds() - 1, "fraction"},
	}
	for _, l := range hostLayers {
		m["host."+l+"_frac"] = metric{shares[l], "fraction"}
	}
	b.out.Correct = true
	b.out.Metrics = m
	return nil
}

// profileHz is the CPU-profile sampling rate of the traced pass.
const profileHz = 400

// runtimeMetrics is a snapshot of the runtime's cumulative CPU and
// allocation counters.
type runtimeMetrics struct {
	gcCPU, busyCPU     float64 // seconds
	allocs, allocBytes float64
}

func readRuntimeMetrics() runtimeMetrics {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeMetrics{gcCPU: f(0), busyCPU: f(1) - f(2), allocs: f(3), allocBytes: f(4)}
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
