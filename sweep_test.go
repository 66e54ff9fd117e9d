package syncron_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"syncron"
)

// tinySweep is a 2-scheme x 2-workload grid small enough for unit tests.
func tinySweep(workers int) syncron.Sweep {
	return syncron.Sweep{
		Workloads:  []string{"stack", "lock"},
		Schemes:    []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral},
		Base:       syncron.Config{Units: 2, CoresPerUnit: 2},
		Params:     syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 6, Rounds: 8},
		SpecRunner: syncron.SpecRunner{Workers: workers, BaseSeed: 7},
	}
}

func TestSweepExpandGrid(t *testing.T) {
	sw := tinySweep(1)
	sw.Units = []int{1, 2}
	sw.STEntries = []int{16, 64}
	specs := sw.Expand()
	if want := 2 * 2 * 2 * 2; len(specs) != want {
		t.Fatalf("expanded %d specs, want %d", len(specs), want)
	}
	// Fixed order: workload outermost, then scheme, units, ST entries.
	first := specs[0]
	if first.Workload != "stack" || first.Config.Scheme != syncron.SchemeSynCron ||
		first.Config.Units != 1 || first.Config.STEntries != 16 {
		t.Fatalf("unexpected first spec: %+v", first)
	}
	last := specs[len(specs)-1]
	if last.Workload != "lock" || last.Config.Scheme != syncron.SchemeCentral ||
		last.Config.Units != 2 || last.Config.STEntries != 64 {
		t.Fatalf("unexpected last spec: %+v", last)
	}
	// Base values survive on every spec.
	for _, spec := range specs {
		if spec.Config.CoresPerUnit != 2 {
			t.Fatalf("base CoresPerUnit lost: %+v", spec.Config)
		}
	}
}

func TestSweepEmptyAxesFallBackToBase(t *testing.T) {
	sw := syncron.Sweep{Workloads: []string{"stack"}, Base: syncron.Config{Units: 3}}
	specs := sw.Expand()
	if len(specs) != 1 {
		t.Fatalf("expanded %d specs, want 1", len(specs))
	}
	if specs[0].Config.Scheme != syncron.SchemeSynCron || specs[0].Config.Units != 3 {
		t.Fatalf("default axes wrong: %+v", specs[0].Config)
	}
}

// TestSweepDeterministicAcrossWorkers is the core parallel-safety guarantee:
// the same sweep must produce byte-identical results at any worker count,
// and result i must carry GridIndex i (the grid_index JSON field).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	serial := tinySweep(1).Run()
	parallel := tinySweep(8).Run()
	for _, rs := range [][]syncron.RunResult{serial, parallel} {
		for i, r := range rs {
			if r.GridIndex != i {
				t.Fatalf("result %d has GridIndex %d", i, r.GridIndex)
			}
			if r.Err != "" {
				t.Fatalf("%s under %s failed: %s", r.Spec.Workload, r.Spec.Config.Scheme, r.Err)
			}
			if r.Makespan <= 0 || r.Ops == 0 {
				t.Fatalf("empty result: %+v", r)
			}
		}
	}
	var a, b bytes.Buffer
	if err := syncron.WriteJSON(&a, serial); err != nil {
		t.Fatal(err)
	}
	if err := syncron.WriteJSON(&b, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("serial and parallel sweeps diverged:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			a.String(), b.String())
	}
}

func TestSweepSeedsDifferPerRun(t *testing.T) {
	results := tinySweep(1).Run()
	seen := map[uint64]bool{}
	for _, r := range results {
		if r.Seed == 0 {
			t.Fatalf("run %s/%s got zero seed", r.Spec.Workload, r.Spec.Config.Scheme)
		}
		if seen[r.Seed] {
			t.Fatalf("duplicate per-run seed %d", r.Seed)
		}
		seen[r.Seed] = true
	}
}

func TestExecuteUnknownWorkloadReportsError(t *testing.T) {
	res := syncron.Execute(syncron.RunSpec{Workload: "no-such-workload"})
	if res.Err == "" || !strings.Contains(res.Err, "no-such-workload") {
		t.Fatalf("want unknown-workload error, got %+v", res)
	}
}

// buggyWorkload releases a lock it never acquired, tripping the runner's
// mutual-exclusion checker from a simulated core's program.
type buggyWorkload struct{}

func (buggyWorkload) Name() string               { return "test.buggy" }
func (buggyWorkload) Kind() syncron.WorkloadKind { return "test" }
func (w buggyWorkload) Prepare(sys *syncron.System, _ syncron.WorkloadParams) (*syncron.PreparedRun, error) {
	lock := sys.AllocLocal(0, 64)
	sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
		ctx.Unlock(lock)
	})
	return &syncron.PreparedRun{Ops: 1}, nil
}

// TestExecuteSurvivesProgramPanic checks that a panic raised while simulating
// a core's program (checker violations, workload bugs) is captured into
// RunResult.Err instead of crashing the process, so sweeps survive bad runs.
func TestExecuteSurvivesProgramPanic(t *testing.T) {
	syncron.RegisterWorkload(buggyWorkload{})
	res := syncron.Execute(syncron.RunSpec{
		Workload: "test.buggy",
		Config:   syncron.Config{Units: 1, CoresPerUnit: 2},
	})
	if res.Err == "" || !strings.Contains(res.Err, "lock") {
		t.Fatalf("want checker-violation error in RunResult.Err, got %+v", res)
	}
}

func TestExecuteReportsResolvedConfig(t *testing.T) {
	res := syncron.Execute(syncron.RunSpec{Workload: "lock",
		Params: syncron.WorkloadParams{Rounds: 3}})
	cfg := res.Spec.Config
	if cfg.Scheme != syncron.SchemeSynCron || cfg.Units != 4 ||
		cfg.CoresPerUnit != 15 || cfg.Seed != 1 {
		t.Fatalf("defaults not resolved into result config: %+v", cfg)
	}
}

func TestWorkloadRegistryCoverage(t *testing.T) {
	var names []string
	have := map[string]bool{}
	for _, n := range syncron.WorkloadNames() {
		if strings.HasPrefix(n, "test.") { // registered by other tests
			continue
		}
		names = append(names, n)
		have[n] = true
	}
	// 4 primitives + 9 data structures + 6 apps x 4 inputs + 2 time series.
	if want := 4 + 9 + 24 + 2; len(names) != want {
		t.Fatalf("registry has %d workloads, want %d: %v", len(names), want, names)
	}
	for _, n := range []string{"lock", "barrier", "stack", "bst_fg", "pr.wk", "tc.sx", "ts.air"} {
		if !have[n] {
			t.Fatalf("workload %q not registered (have %v)", n, names)
		}
	}
	for kind, want := range map[syncron.WorkloadKind]int{
		syncron.KindPrimitive:     4,
		syncron.KindDataStructure: 9,
		syncron.KindGraph:         24,
		syncron.KindTimeSeries:    2,
	} {
		if got := syncron.WorkloadNamesOfKind(kind); len(got) != want {
			t.Errorf("kind %q has %d workloads, want %d: %v", kind, len(got), want, got)
		}
	}
	for _, want := range []syncron.WorkloadInfo{
		{Name: "lock", Kind: syncron.KindPrimitive, Family: "lock"},
		{Name: "stack", Kind: syncron.KindDataStructure, Family: "stack"},
		{Name: "pr.wk", Kind: syncron.KindGraph, Family: "pr"},
		{Name: "ts.air", Kind: syncron.KindTimeSeries, Family: "ts"},
	} {
		if got, ok := syncron.LookupInfo(want.Name); !ok || got != want {
			t.Errorf("LookupInfo(%q) = %+v, %v; want %+v", want.Name, got, ok, want)
		}
		// One workload per family must place a program on every core of a
		// 2x2 machine and pass its functional check.
		w, _ := syncron.LookupWorkload(want.Name)
		sys := syncron.New(syncron.Config{Units: 2, CoresPerUnit: 2})
		prep, err := w.Prepare(sys, syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 6, Rounds: 8})
		if err != nil {
			t.Fatalf("%s: Prepare: %v", want.Name, err)
		}
		if rep := sys.Run(); len(rep.PerCore) != sys.NumCores() {
			t.Errorf("%s ran programs on %d of %d cores", want.Name, len(rep.PerCore), sys.NumCores())
		}
		if prep.Check != nil {
			if err := prep.Check(); err != nil {
				t.Errorf("%s: %v", want.Name, err)
			}
		}
	}
	if _, ok := syncron.LookupWorkload("bogus"); ok {
		t.Fatal("bogus workload resolved")
	}
}

func TestParseSchemeAliases(t *testing.T) {
	for name, want := range map[string]syncron.Scheme{
		"syncron": syncron.SchemeSynCron,
		"flat":    syncron.SchemeSynCronFlat,
		"  Hier ": syncron.SchemeHier,
		"ttas":    syncron.SchemeTTAS,
	} {
		got, err := syncron.ParseScheme(name)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := syncron.ParseScheme("nope"); err == nil {
		t.Error("ParseScheme accepted an unknown scheme")
	}
}

func TestWriteCSVShape(t *testing.T) {
	results := syncron.SpecRunner{Workers: 1, BaseSeed: 3}.Run([]syncron.RunSpec{{
		Workload: "lock",
		Config:   syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 2},
		Params:   syncron.WorkloadParams{Rounds: 5},
	}})
	var buf bytes.Buffer
	if err := syncron.WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Fatalf("header has %d columns, row has %d", len(header), len(row))
	}
	if row[0] != "lock" || row[2] != "syncron" {
		t.Fatalf("unexpected CSV row: %v", row)
	}
}

// The topology axis expands like every other grid axis and actually changes
// simulated timing: a 3-topology sweep over one workload yields distinct
// makespans for multi-hop topologies and identical results for alltoall vs
// the implicit default.
func TestSweepTopologyAxis(t *testing.T) {
	sw := syncron.Sweep{
		Workloads:  []string{"lock"},
		Schemes:    []syncron.Scheme{syncron.SchemeSynCron},
		Topologies: []syncron.Topology{syncron.TopoMesh2D, syncron.TopoRing, syncron.TopoAllToAll},
		Base:       syncron.Config{Units: 4, CoresPerUnit: 2, Seed: 7},
		Params:     syncron.WorkloadParams{Rounds: 10},
		SpecRunner: syncron.SpecRunner{Workers: 1},
	}
	specs := sw.Expand()
	if len(specs) != 3 {
		t.Fatalf("expanded %d specs, want 3", len(specs))
	}
	results := sw.Run()
	byTopo := map[syncron.Topology]syncron.RunResult{}
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s/%s failed: %s", r.Spec.Workload, r.Spec.Config.Topology, r.Err)
		}
		byTopo[r.Spec.Config.Topology] = r
	}
	// The default (empty) topology is alltoall: same seed, same result.
	def := syncron.Execute(syncron.RunSpec{Workload: "lock",
		Config: syncron.Config{Scheme: syncron.SchemeSynCron, Units: 4, CoresPerUnit: 2, Seed: 7},
		Params: syncron.WorkloadParams{Rounds: 10}})
	if def.Err != "" {
		t.Fatal(def.Err)
	}
	if def.Makespan != byTopo[syncron.TopoAllToAll].Makespan {
		t.Fatalf("default topology != alltoall: %v vs %v",
			def.Makespan, byTopo[syncron.TopoAllToAll].Makespan)
	}
	if def.Spec.Config.Topology != syncron.TopoAllToAll {
		t.Fatalf("resolved config topology = %q, want alltoall", def.Spec.Config.Topology)
	}
	// Ring on 4 units has diameter 2: some messages take extra hops, so the
	// ring run cannot beat alltoall and must report a longer mean route.
	if byTopo[syncron.TopoRing].Makespan < byTopo[syncron.TopoAllToAll].Makespan {
		t.Fatalf("ring faster than alltoall: %v vs %v",
			byTopo[syncron.TopoRing].Makespan, byTopo[syncron.TopoAllToAll].Makespan)
	}
	if byTopo[syncron.TopoAllToAll].AvgRouteLinks != 1 {
		t.Fatalf("alltoall avg route links = %f, want 1", byTopo[syncron.TopoAllToAll].AvgRouteLinks)
	}
	if byTopo[syncron.TopoRing].AvgRouteLinks <= 1 {
		t.Fatalf("ring avg route links = %f, want > 1", byTopo[syncron.TopoRing].AvgRouteLinks)
	}
	// Energy accounting follows the routes: more link traversals, more
	// across-unit bytes and network energy.
	if byTopo[syncron.TopoRing].BytesAcrossUnits <= byTopo[syncron.TopoAllToAll].BytesAcrossUnits {
		t.Fatalf("ring link bytes %d not above alltoall %d",
			byTopo[syncron.TopoRing].BytesAcrossUnits, byTopo[syncron.TopoAllToAll].BytesAcrossUnits)
	}
}

// An unknown topology is rejected as a per-run error, not a crashed sweep.
func TestExecuteRejectsUnknownTopology(t *testing.T) {
	res := syncron.Execute(syncron.RunSpec{Workload: "lock",
		Config: syncron.Config{Topology: "torus", Units: 2, CoresPerUnit: 2},
		Params: syncron.WorkloadParams{Rounds: 2}})
	if res.Err == "" || !strings.Contains(res.Err, "torus") {
		t.Fatalf("unknown topology not reported: %+v", res.Err)
	}
}

// A negative machine parameter is rejected up front, naming the field,
// rather than simulating a meaningless machine or failing mid-run.
func TestExecuteRejectsNegativeParameters(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*syncron.Config)
	}{
		{"Units", func(c *syncron.Config) { c.Units = -1 }},
		{"CoresPerUnit", func(c *syncron.Config) { c.CoresPerUnit = -2 }},
		{"LinkLatency", func(c *syncron.Config) { c.LinkLatency = -5 * syncron.Nanosecond }},
		{"STEntries", func(c *syncron.Config) { c.STEntries = -1 }},
		{"FairnessThreshold", func(c *syncron.Config) { c.FairnessThreshold = -3 }},
		{"SEServiceCycles", func(c *syncron.Config) { c.SEServiceCycles = -12 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := syncron.Config{Units: 2, CoresPerUnit: 2}
			tc.set(&cfg)
			res := syncron.Execute(syncron.RunSpec{Workload: "lock", Config: cfg,
				Params: syncron.WorkloadParams{Rounds: 2}})
			if !strings.Contains(res.Err, "Config."+tc.field+" must not be negative") {
				t.Fatalf("negative %s not rejected by name: Err = %q", tc.field, res.Err)
			}
		})
	}
}

// cancelingCache misses every lookup, and each lookup cancels the context.
type cancelingCache struct{ cancel context.CancelFunc }

func (c cancelingCache) Get(string) ([]byte, bool) { c.cancel(); return nil, false }
func (cancelingCache) Put(string, []byte) error    { return nil }

// A canceled RunContext must report every not-yet-started run as a canceled
// result — same length, same order, Err set — never silently drop it. The
// cancel fires from the first run's cache lookup, after that run passed its
// context check, so it completes and every later run observes the dead
// context.
func TestRunContextCancelReportsRemainingRuns(t *testing.T) {
	specs := syncron.ResolveSeeds(tinySweep(1).Expand(), 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := syncron.SpecRunner{Workers: 1, Cache: cancelingCache{cancel}}
	results := r.RunContext(ctx, specs)
	if len(results) != len(specs) {
		t.Fatalf("canceled run returned %d results for %d specs", len(results), len(specs))
	}
	var canceled int
	for i, res := range results {
		if res.Spec.Workload != specs[i].Workload || res.Key == "" {
			t.Fatalf("result %d lost its identity: %+v", i, res)
		}
		if strings.Contains(res.Err, "canceled:") {
			canceled++
		} else if res.Err != "" {
			t.Fatalf("unexpected failure at %d: %s", i, res.Err)
		}
	}
	if canceled == 0 || canceled == len(results) {
		t.Fatalf("%d of %d runs canceled; want some completed and some canceled", canceled, len(results))
	}
}

// Cache-served results carry the in-memory Cached marker, but it never
// reaches the serialized payload: warm and cold runs must render to identical
// bytes, or the serve daemon's byte-identity contract with the batch CLI
// breaks.
func TestCachedFlagSetButNeverSerialized(t *testing.T) {
	cache, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := syncron.ResolveSeeds(tinySweep(1).Expand(), 7)
	r := syncron.SpecRunner{Workers: 2, Cache: cache}
	cold := r.Run(specs)
	warm := r.Run(specs)
	for i := range cold {
		if cold[i].Cached {
			t.Fatalf("cold run %d marked cached", i)
		}
		if !warm[i].Cached {
			t.Fatalf("warm run %d not marked cached", i)
		}
	}
	var coldJSON, warmJSON bytes.Buffer
	if err := syncron.WriteJSON(&coldJSON, cold); err != nil {
		t.Fatal(err)
	}
	if err := syncron.WriteJSON(&warmJSON, warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON.Bytes(), warmJSON.Bytes()) {
		t.Fatal("warm results serialize differently from cold results")
	}
}
