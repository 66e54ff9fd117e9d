// Command syncron-bench regenerates the paper's tables and figures, and
// hosts the simulator's macro-benchmark mode.
//
// Usage:
//
//	syncron-bench -list
//	syncron-bench -exp fig12 -scale 0.5
//	syncron-bench -all -scale 0.25
//	syncron-bench -perf                  # macro-benchmark -> BENCH.json
//	syncron-bench -perf -perf-reps 5 -perf-out BENCH.json
//
// Each experiment prints one or more aligned text tables with the same rows
// and series as the corresponding paper artifact, plus a note recalling the
// paper's headline numbers for comparison. Every run underneath is executed
// through the public syncron workload registry and executor; for ad-hoc
// grids and machine-readable output use `syncron-sim sweep` instead.
//
// A failing experiment (a panic anywhere under Run, recovered here) is
// reported on stderr with its id and makes the process exit non-zero; under
// -all the remaining experiments still run.
//
// The -perf mode replays the canonical `figures --quick` grids
// (syncron.FigureSweeps) several times, again as a tracer-off/tracer-on pair
// (the second with a record-dropping tracer attached) that prices the
// tracing layer's hook points, and finally as a mem-flat/mem-bank pair that
// prices the DRAM timing-model axis, and writes BENCH.json: one entry per
// configuration with wall time per repetition, simulated events/sec,
// allocations per event, and peak heap. Every entry records the host's CPU
// count so reports from different hosts compare honestly. The event count
// must be identical across repetitions AND across every entry except
// mem-bank — the simulator is deterministic and tracing never changes what
// executes. mem-bank genuinely changes memory
// timing (different latencies reorder spin/retry loops), so it is only
// required to be internally consistent across its own repetitions. BENCH.json
// thus doubles as a determinism check. CI's bench smoke job, the perf gates
// (scripts/perf_gate.sh, scripts/mem_gate.sh), and the repo's recorded perf
// trajectory all read this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"syncron"
	"syncron/internal/exp"
)

func main() {
	var (
		id       = flag.String("exp", "", "experiment id (e.g. fig12, table7); see -list")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		scale    = flag.Float64("scale", 1.0, "workload scale factor")
		perf     = flag.Bool("perf", false, "run the macro-benchmark (the canonical figures --quick grids) and write a BENCH report")
		perfOut  = flag.String("perf-out", "BENCH.json", "macro-benchmark report path (use - for stdout)")
		perfReps = flag.Int("perf-reps", 3, "macro-benchmark repetitions (the best one is the headline)")
		perfWork = flag.Int("perf-workers", 1, "macro-benchmark worker goroutines; 1 (the default) measures serial simulator throughput, comparable across hosts (0 = GOMAXPROCS)")
	)
	flag.Parse()

	switch {
	case *list:
		for _, e := range exp.All() {
			fmt.Printf("%-8s %-10s %s\n", e.ID, e.Paper, e.Brief)
		}
	case *perf:
		if err := runPerf(*perfReps, *perfWork, *perfOut); err != nil {
			fmt.Fprintf(os.Stderr, "syncron-bench: perf: %v\n", err)
			os.Exit(1)
		}
	case *all:
		var failed []string
		for _, e := range exp.All() {
			if err := runOne(e, *scale); err != nil {
				fmt.Fprintf(os.Stderr, "syncron-bench: %v\n", err)
				failed = append(failed, e.ID)
			}
		}
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "syncron-bench: %d experiment(s) failed: %v\n", len(failed), failed)
			os.Exit(1)
		}
	case *id != "":
		e, ok := exp.Get(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "syncron-bench: unknown experiment %q (try -list)\n", *id)
			os.Exit(2)
		}
		if err := runOne(e, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "syncron-bench: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne executes one experiment, converting a panic anywhere under Run into
// an error naming the experiment, so a broken experiment cannot take the
// whole -all sweep down or let the process exit 0.
func runOne(e *exp.Experiment, scale float64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s failed: %v", e.ID, p)
		}
	}()
	start := time.Now()
	tables := e.Run(scale)
	for _, t := range tables {
		fmt.Println(t.Format())
	}
	fmt.Printf("[%s completed in %v at scale %g]\n\n", e.ID, time.Since(start).Round(time.Millisecond), scale)
	return nil
}

// perfReport is the BENCH.json schema. Field order is fixed so reports diff
// cleanly across commits. The host block and per-rep work counts are shared;
// each entry is one measured configuration over the same grids, so their
// events/sec sit side by side in one report.
type perfReport struct {
	Benchmark string `json:"benchmark"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	// Reps is the number of repetitions per entry; SimRuns and Events are
	// per repetition and identical across reps AND entries (the simulator is
	// deterministic, and tracing must not change what executes).
	// Exception: the mem-bank entry runs under a different DRAM timing model,
	// so its event count legitimately differs from Events; it is still pinned
	// identical across its own repetitions.
	Reps    int    `json:"reps"`
	SimRuns int    `json:"sim_runs_per_rep"`
	Events  uint64 `json:"events_per_rep"`

	Entries []perfEntry `json:"entries"`
}

// perfEntry is one measured configuration of the macro-benchmark.
type perfEntry struct {
	// Name distinguishes entries: "serial" is the comparable-across-hosts
	// headline, the "tracer-off"/"tracer-on" pair prices the tracing
	// layer (off = nil tracer, on = a tracer that drops every record), and
	// the "mem-flat"/"mem-bank" pair prices the DRAM timing-model axis
	// (flat must match serial exactly; bank runs the row-buffer scheduler).
	Name string `json:"name"`
	// MemModel is the DRAM timing model the entry ran under; empty means the
	// default (flat).
	MemModel string `json:"mem_model,omitempty"`
	// Workers is the sweep worker count (simultaneous runs). The serial
	// entry uses 1 so wall time measures single-run simulator throughput.
	Workers int `json:"workers"`
	// NumCPU is the CPU count of the host that measured THIS entry. It
	// repeats the report-level value today, but entries merged or compared
	// across hosts stay honest: each carries its own context.
	NumCPU int `json:"num_cpu"`

	WallMSPerRep []float64 `json:"wall_ms_per_rep"`
	// BestWallMS and EventsPerSec summarize the fastest repetition — the
	// least-noise estimate of what the hardware can do.
	BestWallMS   float64 `json:"best_wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`

	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
}

// heapSampler polls the live heap from a background goroutine so entries can
// report peak heap without instrumenting the simulator.
type heapSampler struct {
	peak    atomic.Uint64
	stop    chan struct{}
	stopped chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		var ms runtime.MemStats
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak.Load() {
				s.peak.Store(ms.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// take returns the peak heap observed since the last take and resets it, so
// consecutive entries get independent peaks from one sampler goroutine.
func (s *heapSampler) take() uint64 { return s.peak.Swap(0) }

// halt stops the sampler goroutine (ReadMemStats is a stop-the-world pause;
// the ticker must not outlive the benchmark).
func (s *heapSampler) halt() {
	close(s.stop)
	<-s.stopped
}

// measurePerf runs the figures-quick grids reps times under one
// configuration and returns the entry plus the per-rep work counts.
// tracer, when non-nil, is attached to every run
// (it must be stateless, like syncron.DiscardTracer, since runs can execute
// concurrently). memModel, when non-empty, switches every run onto that DRAM
// timing model.
func measurePerf(name string, workers, reps int, sampler *heapSampler, tracer syncron.Tracer, memModel syncron.MemModel) (perfEntry, int, uint64, error) {
	sweeps := syncron.FigureSweeps(syncron.FigureOptions{Quick: true, Workers: workers})
	for i := range sweeps {
		sweeps[i].Base.Tracer = tracer
		sweeps[i].Base.MemModel = memModel
	}
	entry := perfEntry{Name: name, MemModel: string(memModel), Workers: workers, NumCPU: runtime.NumCPU()}
	var events uint64
	simRuns := 0
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler.take()
	for i := 0; i < reps; i++ {
		var repEvents uint64
		repRuns := 0
		start := time.Now()
		for _, sw := range sweeps {
			for _, r := range sw.Run() {
				if r.Err != "" {
					return entry, 0, 0, fmt.Errorf("%s under %s failed: %s",
						r.Spec.Workload, r.Spec.Config.Scheme, r.Err)
				}
				repEvents += r.Events
				repRuns++
			}
		}
		wall := time.Since(start)
		entry.WallMSPerRep = append(entry.WallMSPerRep, float64(wall.Microseconds())/1e3)
		if i == 0 {
			simRuns = repRuns
			events = repEvents
		} else if repEvents != events {
			return entry, 0, 0, fmt.Errorf("non-deterministic %s run: rep %d executed %d events, rep 1 executed %d",
				name, i+1, repEvents, events)
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	entry.BestWallMS = entry.WallMSPerRep[0]
	for _, w := range entry.WallMSPerRep[1:] {
		if w < entry.BestWallMS {
			entry.BestWallMS = w
		}
	}
	if entry.BestWallMS > 0 {
		entry.EventsPerSec = float64(events) / (entry.BestWallMS / 1e3)
	}
	totalEvents := events * uint64(reps)
	if totalEvents > 0 {
		entry.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(totalEvents)
		entry.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(totalEvents)
	}
	entry.PeakHeapBytes = sampler.take()
	return entry, simRuns, events, nil
}

// runPerf is the macro-benchmark: it replays the canonical figures --quick
// grids reps times per entry, verifies the entries executed the identical
// event count, and writes a perfReport.
func runPerf(reps, workers int, out string) error {
	if reps < 1 {
		reps = 1
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sampler := startHeapSampler()
	defer sampler.halt()

	rep := perfReport{
		Benchmark: "figures-quick",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Reps:      reps,
	}
	serial, simRuns, events, err := measurePerf("serial", workers, reps, sampler, nil, "")
	if err != nil {
		return err
	}
	rep.SimRuns = simRuns
	rep.Events = events
	rep.Entries = []perfEntry{serial}
	// The tracing layer's cost contract: tracer-off re-measures the serial
	// configuration as the disabled-path reference (measured back-to-back
	// with tracer-on so the pair shares thermal/cache conditions), and
	// tracer-on attaches a tracer that drops every record, isolating the cost
	// of the live hook points themselves.
	for _, tc := range []struct {
		name   string
		tracer syncron.Tracer
	}{{"tracer-off", nil}, {"tracer-on", syncron.DiscardTracer}} {
		entry, runs, ev, err := measurePerf(tc.name, workers, reps, sampler, tc.tracer, "")
		if err != nil {
			return err
		}
		// Tracing is observational: it must not change what executes either.
		if ev != events || runs != simRuns {
			return fmt.Errorf("%s executed %d events over %d runs, serial executed %d over %d — tracing changed the simulation",
				entry.Name, ev, runs, events, simRuns)
		}
		rep.Entries = append(rep.Entries, entry)
	}
	// The DRAM timing-model pair: mem-flat re-measures the serial configuration
	// with the model named explicitly (it must execute exactly what serial
	// executed — flat is the default, so any divergence means the axis leaked
	// into the flat path), and mem-bank runs the bank/row-buffer scheduler.
	// mem-bank's event count legitimately differs — different memory latencies
	// reorder spin and retry loops — so it is only pinned internally consistent
	// across repetitions (measurePerf enforces that), never against serial.
	for _, mc := range []struct {
		name  string
		model syncron.MemModel
	}{{"mem-flat", syncron.MemModelFlat}, {"mem-bank", syncron.MemModelBank}} {
		entry, runs, ev, err := measurePerf(mc.name, workers, reps, sampler, nil, mc.model)
		if err != nil {
			return err
		}
		if mc.model == syncron.MemModelFlat && (ev != events || runs != simRuns) {
			return fmt.Errorf("%s executed %d events over %d runs, serial executed %d over %d — the mem-model axis perturbed the flat path",
				entry.Name, ev, runs, events, simRuns)
		}
		rep.Entries = append(rep.Entries, entry)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	for _, e := range rep.Entries {
		fmt.Printf("wrote %s [%s w=%d]: %d sim runs, %d events/rep, best %.0f ms, %.2fM events/sec, %.2f allocs/event\n",
			out, e.Name, e.Workers, rep.SimRuns, rep.Events, e.BestWallMS, e.EventsPerSec/1e6, e.AllocsPerEvent)
	}
	return nil
}
