// Command syncron-sim runs simulations through the public syncron API: a
// single workload on a single configuration, or a whole
// (workload x scheme x config) sweep on a bounded worker pool.
//
// Single runs (the default subcommand):
//
//	syncron-sim -workload stack -scheme syncron -cores 60
//	syncron-sim run -workload pr.wk -scheme hier -units 2 -scale 0.2
//	syncron-sim run -workload ts.air -scheme central -mem ddr4
//	syncron-sim run -workload lock -interval 200 -scheme syncron
//
// Sweeps (results as JSON, optionally CSV):
//
//	syncron-sim sweep -workloads stack,queue -schemes central,hier,syncron,ideal
//	syncron-sim sweep -workloads lock,barrier -units-list 1,2,4 -workers 8 -json out.json
//	syncron-sim sweep -workloads ts.air -schemes syncron -st-list 16,32,64 -csv out.csv
//	syncron-sim sweep -workloads lock,stack -topology mesh,ring,alltoall -csv topo.csv
//	syncron-sim sweep -workloads lock,stack -mem-model flat,bank -csv mem.csv
//
// Content-addressed result caching (a cached run skips simulation; -from
// and -cache-only read an existing cache and never simulate):
//
//	syncron-sim sweep -workloads lock,stack -cache .sweepcache -json out.json
//	syncron-sim figures -cache .gridcache -md figures.md
//	syncron-sim figures -from .gridcache -md figures.md   # zero simulation
//
// Paper figures (Markdown tables, optionally one CSV per figure):
//
//	syncron-sim figures --quick
//	syncron-sim figures -baseline central -md figures.md -csv-dir out/
//	syncron-sim figures --quick -topologies alltoall,mesh,ring,star
//	syncron-sim figures --quick -mem bank
//	syncron-sim figures --quick -cache .gridcache   # second run simulates nothing
//
// Paper artifacts the figures views do not render (tables 1, 7, 8, the
// link-latency, memory, partitioning, flat and overflow studies, and two
// ablations), as Markdown plus optional CSVs; with no IDs it lists them all:
//
//	syncron-sim paper
//	syncron-sim paper -scale 0.25 fig10 fig23
//	syncron-sim paper -scale 0.05 -md paper.md -csv-dir out/ all
//
// Profiling (run, sweep, figures and paper; inspect with `go tool pprof`):
//
//	syncron-sim figures --quick -md /dev/null -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Serving (long-running daemon: POST run specs or sweep grids over HTTP,
// cache-backed dedup and single-flight, bounded queue with backpressure,
// streaming progress; drains gracefully on SIGTERM):
//
//	syncron-sim serve -addr 127.0.0.1:8080 -cache .servecache
//	curl -s -X POST localhost:8080/jobs -d "{\"specs\":[$(syncron-sim run -seed 7 -print-spec)]}"
//	curl -s localhost:8080/jobs/<id>/events       # NDJSON progress stream
//	curl -s localhost:8080/jobs/<id>/result       # byte-identical to run -json
//
// Discovery:
//
//	syncron-sim list
//	syncron-sim cache-version
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"syncron"
	"syncron/internal/serve"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		runCmd(args)
	case "sweep":
		sweepCmd(args)
	case "figures":
		figuresCmd(args)
	case "paper":
		paperCmd(args)
	case "serve":
		serveCmd(args)
	case "list":
		listCmd()
	case "cache-version":
		// The spec-hash version, for cache invalidation keys (CI keys its
		// actions/cache entries on it; see SpecKeyVersion). The serve
		// daemon's GET /version reports the same syncron.Version() value.
		fmt.Printf("%s\n", syncron.Version().CacheVersion)
	default:
		fatal("unknown subcommand %q (want run, sweep, figures, paper, serve, list, or cache-version)", cmd)
	}
}

// listCmd prints every registered workload grouped by kind.
func listCmd() {
	for _, kind := range syncron.Kinds() {
		fmt.Printf("%-17s %s\n", kind, strings.Join(syncron.WorkloadNamesOfKind(kind), ", "))
	}
}

// configFlags registers the flags shared by run and sweep and returns a
// closure resolving them into a Config, plus the raw -cores flag (total
// client cores, split per unit count by coresPerUnit), the raw -topology and
// -mem-model flags (run takes one value each; sweep accepts comma lists as
// grid axes).
func configFlags(fs *flag.FlagSet) (func() syncron.Config, *int, *string, *string) {
	var (
		units    = fs.Int("units", 4, "NDP units")
		cores    = fs.Int("cores", 0, "total client cores (default units*15)")
		memTech  = fs.String("mem", "hbm", "hbm | hmc | ddr4")
		memModel = fs.String("mem-model", "", "DRAM timing model: flat | bank (default flat); sweep accepts a comma-separated grid axis")
		topology = fs.String("topology", "", "interconnect: alltoall | mesh | ring | star (default alltoall); sweep accepts a comma-separated grid axis")
		linkNS   = fs.Int64("link-ns", 0, "inter-unit transfer latency in ns, positive (default 40; zero means the 40 ns default, so -link-ns 0 is rejected)")
		stSize   = fs.Int("st", 0, "SynCron ST entries (default 64)")
		fairness = fs.Int("fairness", 0, "lock fairness threshold (0 = off)")
		seed     = fs.Uint64("seed", 0, "simulation seed (0 = default)")
	)
	return func() syncron.Config {
		if *units <= 0 {
			fatal("-units must be positive (got %d)", *units)
		}
		// A zero LinkLatency means the 40 ns default, so an explicit
		// -link-ns 0 would silently run at 40 ns.
		if *linkNS == 0 && flagSet(fs, "link-ns") {
			fatal("-link-ns must be positive (got 0); omit it for the 40 ns default")
		}
		memory, err := syncron.ParseMemory(*memTech)
		if err != nil {
			fatal("%v", err)
		}
		return syncron.Config{
			Units:             *units,
			Memory:            memory,
			LinkLatency:       syncron.Time(*linkNS) * syncron.Nanosecond,
			STEntries:         *stSize,
			FairnessThreshold: *fairness,
			Seed:              *seed,
		}
	}, cores, topology, memModel
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// coresPerUnit splits a -cores total evenly across units; 0 keeps the
// default. A total that is not a positive multiple of units is an error
// rather than a silently different core count.
func coresPerUnit(cores, units int) (int, error) {
	if cores == 0 {
		return 0, nil
	}
	if cores < 0 || cores%units != 0 {
		return 0, fmt.Errorf("-cores %d is not a positive multiple of %d units", cores, units)
	}
	return cores / units, nil
}

// parseList resolves every value of a comma-separated flag with parse,
// failing on the first one parse rejects.
func parseList[T any](s string, parse func(string) (T, error)) []T {
	var out []T
	for _, name := range splitList(s) {
		v, err := parse(name)
		if err != nil {
			fatal("%v", err)
		}
		out = append(out, v)
	}
	return out
}

// schemeHelp lists every scheme for the -scheme flag, in Schemes order.
func schemeHelp() string {
	var names []string
	for _, s := range syncron.Schemes() {
		names = append(names, string(s))
	}
	return strings.Join(names, " | ") + " (flat is short for syncron-flat)"
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "stack", "workload name; see `syncron-sim list`")
		scheme    = fs.String("scheme", "syncron", schemeHelp())
		scale     = fs.Float64("scale", 0.25, "workload scale factor")
		ops       = fs.Int("ops", 40, "operations per core (data structures)")
		interval  = fs.Int64("interval", 200, "instructions between sync points (primitives)")
		metis     = fs.Bool("metis", false, "use the METIS-like greedy graph partitioner")
		jsonOut   = fs.String("json", "", "also write the result as JSON to this path (- = stdout, suppressing the report); byte-identical to the serve daemon's result for the same spec")
		printSpec = fs.Bool("print-spec", false, "print the canonical RunSpec JSON and exit without simulating (the exact payload to POST to a serve daemon)")
		traceOut  = fs.String("trace", "", "write a time-resolved trace CSV of the run to this path; output is byte-identical across repeated runs")
	)
	cfg, cores, topology, memModel := configFlags(fs)
	profile := profileFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	defer profile()()

	spec := syncron.RunSpec{
		Workload: *workload,
		Config:   cfg(),
		Params: syncron.WorkloadParams{Scale: *scale, OpsPerCore: *ops,
			Interval: *interval, Metis: *metis},
	}
	perUnit, err := coresPerUnit(*cores, spec.Config.Units)
	if err != nil {
		fatal("%v", err)
	}
	spec.Config.CoresPerUnit = perUnit
	sch, err := syncron.ParseScheme(*scheme)
	if err != nil {
		fatal("%v", err)
	}
	spec.Config.Scheme = sch
	topo, err := syncron.ParseTopology(*topology)
	if err != nil {
		fatal("%v", err)
	}
	spec.Config.Topology = topo
	mmodel, err := syncron.ParseMemModel(*memModel)
	if err != nil {
		fatal("%v", err)
	}
	spec.Config.MemModel = mmodel
	if err := spec.Validate(); err != nil {
		fatal("%v", err)
	}
	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(spec); err != nil {
			fatal("encoding spec: %v", err)
		}
		return
	}
	var col *syncron.TraceCollector
	if *traceOut != "" {
		col = syncron.NewTraceCollector()
		spec.Config.Tracer = col
	}
	// run is exactly a one-spec sweep: same seed derivation (a zero -seed gets
	// deriveSeed(0, 0), as a serve daemon resolves it), same SpecKey stamping,
	// same serialization — so `run -json`, `sweep`, and a serve job of the
	// same spec are byte-interchangeable. The tracer never perturbs this: it
	// is excluded from SpecKey and serialized output.
	res := syncron.SpecRunner{}.Run([]syncron.RunSpec{spec})[0]
	if *jsonOut != "" {
		writeOut(*jsonOut, func(w io.Writer) error { return syncron.WriteJSON(w, []syncron.RunResult{res}) })
	}
	if res.Err != "" {
		fatal("%s", res.Err)
	}
	if col != nil {
		writeOut(*traceOut, col.WriteCSV)
	}
	if *jsonOut != "-" {
		report(res)
	}
}

// profileFlags registers -cpuprofile and -memprofile on fs. Once fs is
// parsed, start begins the CPU profile and returns the function that ends it
// and writes the heap profile; a command defers that. A command that exits
// through fatal leaves no profile.
func profileFlags(fs *flag.FlagSet) (start func() (stop func())) {
	cpuPath := fs.String("cpuprofile", "", "write a pprof CPU profile of the command to this path")
	memPath := fs.String("memprofile", "", "write a pprof heap profile to this path when the command ends")
	return func() func() {
		var cpu *os.File
		if *cpuPath != "" {
			f, err := os.Create(*cpuPath)
			if err != nil {
				fatal("%v", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				fatal("starting CPU profile: %v", err)
			}
			cpu = f
		}
		return func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fatal("closing %s: %v", *cpuPath, err)
				}
			}
			if *memPath != "" {
				writeOut(*memPath, func(w io.Writer) error {
					runtime.GC() // the profile reports the heap as of the last GC
					return pprof.WriteHeapProfile(w)
				})
			}
		}
	}
}

func report(res syncron.RunResult) {
	fmt.Printf("workload        %s (%s)\n", res.Spec.Workload, res.Kind)
	fmt.Printf("scheme          %s\n", res.Spec.Config.Scheme)
	fmt.Printf("topology        %s\n", res.Spec.Config.Topology)
	fmt.Printf("makespan        %v\n", res.Makespan)
	if res.Ops > 0 {
		fmt.Printf("throughput      %.1f ops/ms (%.3f Mops/s)\n", res.OpsPerMs, res.MopsPerSec)
	}
	fmt.Printf("energy          cache %.1f uJ, network %.1f uJ, memory %.1f uJ (total %.1f uJ)\n",
		res.CacheEnergyPJ/1e6, res.NetworkEnergyPJ/1e6, res.MemoryEnergyPJ/1e6, res.TotalEnergyPJ()/1e6)
	if res.Spec.Config.MemModel == syncron.MemModelBank {
		fmt.Printf("row buffer      %.1f%% hit rate\n", res.RowHitRate*100)
	}
	fmt.Printf("data movement   %.1f KB inside units, %.1f KB across units\n",
		float64(res.BytesInsideUnits)/1024, float64(res.BytesAcrossUnits)/1024)
	if res.AvgRouteLinks > 0 {
		fmt.Printf("route length    %.2f links per cross-unit message\n", res.AvgRouteLinks)
	}
	if res.STOccupancyMax > 0 || res.OverflowedFraction > 0 {
		fmt.Printf("ST occupancy    max %.1f%%, mean %.2f%%\n", res.STOccupancyMax*100, res.STOccupancyMean*100)
		fmt.Printf("overflowed      %.2f%% of requests\n", res.OverflowedFraction*100)
	}
}

// requireDir fails unless dir exists. Read-only cache flags (-from,
// -cache-only) check it up front, because opening a cache creates its
// directory, and a mistyped path would then miss on every run.
func requireDir(flagName, dir string) {
	if info, err := os.Stat(dir); err != nil || !info.IsDir() {
		fatal("-%s: cache directory %s does not exist", flagName, dir)
	}
}

// openCache opens a -cache directory, or returns nil for the empty path.
func openCache(dir string) *syncron.CacheDir {
	if dir == "" {
		return nil
	}
	cache, err := syncron.DirCache(dir)
	if err != nil {
		fatal("opening cache %s: %v", dir, err)
	}
	return cache
}

// reportCacheStats summarizes cache traffic on stderr after a sweep.
func reportCacheStats(cache *syncron.CacheDir) {
	if cache == nil {
		return
	}
	st := cache.Stats()
	fmt.Fprintf(os.Stderr, "syncron-sim: cache %s: %d hits, %d misses, %d writes\n",
		cache.Path(), st.Hits, st.Misses, st.Puts)
}

func sweepCmd(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		workloads = fs.String("workloads", "stack,queue", "comma-separated workload names; see `syncron-sim list`")
		schemes   = fs.String("schemes", "central,hier,syncron,ideal", "comma-separated schemes")
		unitsList = fs.String("units-list", "", "comma-separated NDP unit counts (grid axis; empty = -units)")
		stList    = fs.String("st-list", "", "comma-separated SynCron ST sizes (grid axis; empty = -st)")
		scale     = fs.Float64("scale", 0.25, "workload scale factor")
		ops       = fs.Int("ops", 40, "operations per core (data structures)")
		interval  = fs.Int64("interval", 200, "instructions between sync points (primitives)")
		metis     = fs.Bool("metis", false, "use the METIS-like greedy graph partitioner")
		workers   = fs.Int("workers", 0, "parallel runs (0 = GOMAXPROCS)")
		baseSeed  = fs.Uint64("base-seed", 0, "base for deterministic per-run seeds")
		jsonOut   = fs.String("json", "-", "JSON output path (- = stdout)")
		csvOut    = fs.String("csv", "", "also write CSV to this path")
		cacheDir  = fs.String("cache", "", "content-addressed result cache directory: cached runs skip simulation, new results are stored")
		cacheOnly = fs.Bool("cache-only", false, "forbid simulation; runs missing from -cache fail")
		failFast  = fs.Bool("fail-fast", false, "cancel unstarted runs as soon as any run fails")
		traceDir  = fs.String("trace", "", "write one time-resolved trace CSV per run into this directory; incompatible with -cache (a cached run skips the simulation a trace observes)")
	)
	cfg, cores, topology, memModel := configFlags(fs)
	profile := profileFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	defer profile()()

	runner := syncron.SpecRunner{
		Workers:   *workers,
		BaseSeed:  *baseSeed,
		CacheOnly: *cacheOnly,
		FailFast:  *failFast,
	}
	if *cacheOnly {
		if *cacheDir == "" {
			fatal("-cache-only requires -cache DIR")
		}
		requireDir("cache-only", *cacheDir)
	}
	cache := openCache(*cacheDir)
	if cache != nil {
		runner.Cache = cache
	}
	if *traceDir != "" {
		// A cache hit skips the simulation entirely, so a traced cached run
		// would emit an empty (misleading) trace. Fail loudly instead.
		if cache != nil {
			fatal("-trace is incompatible with -cache/-cache-only: cached runs skip the simulation a trace observes")
		}
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal("%v", err)
		}
	}

	sw := syncron.Sweep{
		Workloads:  splitList(*workloads),
		Topologies: parseList(*topology, syncron.ParseTopology),
		MemModels:  parseList(*memModel, syncron.ParseMemModel),
		Base:       cfg(),
		Params: syncron.WorkloadParams{Scale: *scale, OpsPerCore: *ops,
			Interval: *interval, Metis: *metis},
		Schemes: parseList(*schemes, syncron.ParseScheme),
	}
	for _, s := range splitList(*unitsList) {
		u := parseInt(s, "units-list")
		if u <= 0 {
			fatal("-units-list values must be positive (got %d)", u)
		}
		sw.Units = append(sw.Units, u)
	}
	for _, s := range splitList(*stList) {
		sw.STEntries = append(sw.STEntries, parseInt(s, "st-list"))
	}
	specs := sw.Expand()
	// -cores fixes the TOTAL client core count, so per-unit cores must track
	// the -units-list axis rather than the base -units value. Every spec is
	// validated before the first run starts.
	for i := range specs {
		perUnit, err := coresPerUnit(*cores, specs[i].Config.Units)
		if err != nil {
			fatal("%v", err)
		}
		specs[i].Config.CoresPerUnit = perUnit
		if err := specs[i].Validate(); err != nil {
			fatal("%v", err)
		}
	}

	var cols []*syncron.TraceCollector
	if *traceDir != "" {
		cols = make([]*syncron.TraceCollector, len(specs))
		for i := range specs {
			cols[i] = syncron.NewTraceCollector()
			specs[i].Config.Tracer = cols[i]
		}
	}

	fmt.Fprintf(os.Stderr, "syncron-sim: sweeping %d runs (%d workloads x %d schemes)\n",
		len(specs), len(sw.Workloads), len(sw.Schemes))
	results := runner.Run(specs)
	reportCacheStats(cache)

	if *traceDir != "" {
		for i, r := range results {
			if r.Err != "" {
				continue // a failed run's trace is partial; don't emit it
			}
			name := fmt.Sprintf("%03d-%s-%s.trace.csv", r.GridIndex, r.Spec.Workload, r.Spec.Config.Scheme)
			writeOut(filepath.Join(*traceDir, name), cols[i].WriteCSV)
		}
	}

	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "syncron-sim: %s under %s failed: %s\n",
				r.Spec.Workload, r.Spec.Config.Scheme, r.Err)
		}
	}
	writeOut(*jsonOut, func(w io.Writer) error { return syncron.WriteJSON(w, results) })
	if *csvOut != "" {
		writeOut(*csvOut, func(w io.Writer) error { return syncron.WriteCSV(w, results) })
	}
	if failed > 0 {
		fatal("%d of %d runs failed", failed, len(results))
	}
}

// figuresCmd runs the canonical figure grids and emits the paper's
// evaluation views as Markdown tables (plus optional per-figure CSVs).
func figuresCmd(args []string) {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	var (
		quick     = fs.Bool("quick", false, "representative 12-workload subset at reduced scale (~seconds)")
		baseline  = fs.String("baseline", "central", "scheme every view is normalized to")
		schemes   = fs.String("schemes", "central,hier,syncron,ideal", "comma-separated schemes to compare")
		workloads = fs.String("workloads", "", "comma-separated workload names for the main grid (empty = canonical set)")
		scale     = fs.Float64("scale", 0, "workload scale factor (0 = canonical default)")
		topos     = fs.String("topologies", "", "comma-separated topologies for the interconnect sensitivity figure (empty = skip it)")
		memModels = fs.String("mem", "", "comma-separated DRAM timing models for the memory sensitivity figure (empty = skip it)")
		workers   = fs.Int("workers", 0, "parallel runs (0 = GOMAXPROCS); never affects results")
		baseSeed  = fs.Uint64("base-seed", 0, "base for deterministic per-run seeds")
		mdOut     = fs.String("md", "-", "Markdown output path (- = stdout)")
		csvDir    = fs.String("csv-dir", "", "also write one <figure>.csv per figure into this directory")
		cacheDir  = fs.String("cache", "", "content-addressed result cache directory: cached runs skip simulation, new results are stored")
		fromDir   = fs.String("from", "", "render purely from this cache directory; any missing run is an error (zero simulation)")
		traceDir  = fs.String("trace", "", "add the time-resolved trace figure and write its per-workload trace/view CSVs into this directory; the traced grid always simulates (it bypasses -cache)")
	)
	profile := profileFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	defer profile()()

	base, err := syncron.ParseScheme(*baseline)
	if err != nil {
		fatal("%v", err)
	}
	if *fromDir != "" && *cacheDir != "" && *fromDir != *cacheDir {
		fatal("-from and -cache name different directories; use one of them")
	}
	if *fromDir != "" && *traceDir != "" {
		fatal("-from promises zero simulation, but the traced grid always simulates; drop one of -from/-trace")
	}
	if *fromDir != "" {
		requireDir("from", *fromDir)
		*cacheDir = *fromDir
	}
	cache := openCache(*cacheDir)
	opt := syncron.FigureOptions{
		Quick:      *quick,
		Baseline:   base,
		Scale:      *scale,
		Workers:    *workers,
		BaseSeed:   *baseSeed,
		Topologies: parseList(*topos, syncron.ParseTopology),
		MemModels:  parseList(*memModels, syncron.ParseMemModel),
		Schemes:    parseList(*schemes, syncron.ParseScheme),
		CacheOnly:  *fromDir != "",
		TraceDir:   *traceDir,
	}
	if cache != nil {
		opt.Cache = cache
	}
	opt.Workloads = splitList(*workloads)

	figs, err := syncron.Figures(opt)
	if err != nil {
		fatal("%v", err)
	}
	reportCacheStats(cache)
	writeFigures(*mdOut, *csvDir, fmt.Sprintf("# SynCron paper figures\n\nBaseline scheme: `%s`. "+
		"All runs use deterministic per-run seeds (base seed %d).\n\n", base, *baseSeed), figs)
}

// paperCmd regenerates the paper artifacts of syncron.PaperArtifacts as
// Markdown (plus optional per-table CSVs). With no IDs it lists every
// artifact; "all" renders every artifact with a builder of its own.
func paperCmd(args []string) {
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	var (
		scale  = fs.Float64("scale", 1, "workload scale factor")
		mdOut  = fs.String("md", "-", "Markdown output path (- = stdout)")
		csvDir = fs.String("csv-dir", "", "also write one <table>.csv per table into this directory")
	)
	profile := profileFlags(fs)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error
	defer profile()()

	if fs.NArg() == 0 {
		for _, a := range syncron.PaperArtifacts() {
			brief := a.Brief
			if a.View != "" {
				brief += fmt.Sprintf(" [syncron-sim figures, view %s]", a.View)
			}
			fmt.Printf("%-18s %-13s %s\n", a.ID, a.Paper, brief)
		}
		return
	}
	var arts []syncron.PaperArtifact
	if fs.NArg() == 1 && fs.Arg(0) == "all" {
		for _, a := range syncron.PaperArtifacts() {
			if a.Build != nil {
				arts = append(arts, a)
			}
		}
	} else {
		for _, id := range fs.Args() {
			a, ok := syncron.LookupPaperArtifact(id)
			if !ok {
				fatal("unknown paper artifact %q (run `syncron-sim paper` to list them)", id)
			}
			if a.View != "" {
				fatal("%s is rendered by `syncron-sim figures` as the %s view", id, a.View)
			}
			arts = append(arts, a)
		}
	}
	var figs []*syncron.Figure
	for _, a := range arts {
		built, err := a.Build(*scale)
		if err != nil {
			fatal("%s: %v", a.ID, err)
		}
		figs = append(figs, built...)
	}
	writeFigures(*mdOut, *csvDir, fmt.Sprintf("# SynCron paper artifacts\n\n"+
		"Workload scale %g. Every run uses seed 1.\n\n", *scale), figs)
}

// writeFigures emits figs as one Markdown document, header first, to mdOut
// (- = stdout) and, when csvDir is set, one <figure>.csv per figure into it.
func writeFigures(mdOut, csvDir, header string, figs []*syncron.Figure) {
	writeOut(mdOut, func(w io.Writer) error {
		if _, err := io.WriteString(w, header); err != nil {
			return err
		}
		for _, fig := range figs {
			if err := fig.WriteMarkdown(w); err != nil {
				return err
			}
		}
		return nil
	})
	if csvDir == "" {
		return
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		fatal("%v", err)
	}
	for _, fig := range figs {
		writeOut(filepath.Join(csvDir, fig.ID+".csv"), fig.WriteCSV)
	}
}

// serveCmd runs the long-lived sweep-as-a-service daemon: submissions over
// HTTP, cache-backed dedup and single-flight, a bounded job queue with
// backpressure, streaming progress, and graceful drain on SIGINT/SIGTERM
// (in-flight and queued work is finished and persisted to the cache before
// exit; the process exits 0 on a clean drain).
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers      = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queueDepth   = fs.Int("queue", 256, "max queued runs; submissions above this are rejected with 503 + Retry-After")
		cacheDir     = fs.String("cache", "", "content-addressed result cache directory (strongly recommended: it is the serving memoization tier)")
		retryAfter   = fs.Duration("retry-after", time.Second, "backoff hint attached to backpressure rejections")
		drainTimeout = fs.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for queued and in-flight runs before forcing exit")
		maxJobs      = fs.Int("max-jobs", 1024, "retained job records; oldest terminal jobs are evicted beyond this")
	)
	_ = fs.Parse(args) // ExitOnError: Parse never returns an error

	opt := serve.Options{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		RetryAfter: *retryAfter,
		MaxJobs:    *maxJobs,
	}
	cache := openCache(*cacheDir)
	if cache != nil {
		opt.Cache = cache
	}
	srv := serve.New(opt)
	hs := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "syncron-sim: serving on http://%s (workers %d, queue %d, cache %s, %s)\n",
		ln.Addr(), opt.Workers, opt.QueueDepth, cacheName(cache), syncron.Version().CacheVersion)

	select {
	case err := <-errc:
		fatal("serving: %v", err)
	case <-ctx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "syncron-sim: draining (timeout %s)\n", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain the job scheduler first: once every job is terminal, open
		// event streams end on their own and the HTTP shutdown below has no
		// long-lived connections left to wait out.
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "syncron-sim: drain incomplete: %v\n", err)
			_ = hs.Close()
			os.Exit(1)
		}
		if err := hs.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "syncron-sim: http shutdown: %v\n", err)
			os.Exit(1)
		}
		reportCacheStats(cache)
		fmt.Fprintln(os.Stderr, "syncron-sim: drained cleanly")
	}
}

// cacheName names the cache for the startup banner.
func cacheName(cache *syncron.CacheDir) string {
	if cache == nil {
		return "none"
	}
	return cache.Path()
}

// writeOut runs write on path (- = stdout), failing loudly on create, write
// AND close errors so a truncated output never exits 0.
func writeOut(path string, write func(io.Writer) error) {
	if path == "-" {
		if err := write(os.Stdout); err != nil {
			fatal("writing stdout: %v", err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatal("closing %s: %v", path, err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInt(s, flagName string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		fatal("bad -%s value %q", flagName, s)
	}
	return v
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "syncron-sim: "+format+"\n", args...)
	os.Exit(2)
}
