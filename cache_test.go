package syncron_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"syncron"
)

// TestSpecKeyGolden pins the content hashes of representative specs.
//
// If this test fails, the canonical spec encoding changed. That is only
// correct as part of a deliberate cache-format change; the checklist is:
//
//  1. extend specKeyRecord (cache.go) so every RunSpec/Config/WorkloadParams
//     field is covered — TestSpecKeyCoversEveryField pins the field counts;
//  2. bump SpecKeyVersion, so every existing cache entry becomes a miss
//     instead of a silently wrong hit;
//  3. re-pin the hashes below and the version prefix in this file;
//  4. regenerate goldens/figures-full.md if simulator output also changed.
//
// A SpecKey collision between different specs, or a hash that drifts between
// runs or hosts, is a cache-poisoning bug — never "fix" this test by
// loosening it.
func TestSpecKeyGolden(t *testing.T) {
	base := syncron.RunSpec{
		Workload: "lock",
		Config: syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2,
			CoresPerUnit: 2, Seed: 7},
		Params: syncron.WorkloadParams{Rounds: 4},
	}
	full := syncron.RunSpec{
		Workload: "pr.wk",
		Config: syncron.Config{Scheme: syncron.SchemeHier, Units: 4, CoresPerUnit: 15,
			Memory: syncron.DDR4, MemModel: syncron.MemModelBank,
			Topology:    syncron.TopoMesh2D,
			LinkLatency: 40 * syncron.Nanosecond, STEntries: 32,
			Overflow: syncron.OverflowCentral, FairnessThreshold: 100,
			SEServiceCycles: 12, Seed: 99},
		Params: syncron.WorkloadParams{Scale: 0.25, OpsPerCore: 40, Size: 64,
			Interval: 200, Rounds: 8, Metis: true},
	}
	for name, want := range map[syncron.RunSpec]string{
		base: "v2-a1361b964fb2dcde6b534074c5b641aca0b568122e02a93f39ab0dd2510c9c73",
		full: "v2-769c42b6d2a80483650525da565dcf0c3b2d8ac72673a5e6611c80f83f89022e",
		{}:   "v2-6f8dd9c5e0e202c3342e64a9896004679265baba871a0e2e29a93fb41f17e945",
	} {
		if got := syncron.SpecKey(name); got != want {
			t.Errorf("SpecKey(%+v)\n  got  %s\n  want %s", name, got, want)
		}
	}
}

// TestSpecKeyCoversEveryField pins the field counts of the structs SpecKey
// hashes. If it fails, a field was added to (or removed from) RunSpec,
// Config, or WorkloadParams without going through the SpecKey version-bump
// checklist (see TestSpecKeyGolden) — a silent cache-poisoning hazard,
// because two now-different specs would share a key.
func TestSpecKeyCoversEveryField(t *testing.T) {
	// Config counts 14 fields but specKeyRecord covers 12: Parallelism and
	// Tracer are the two deliberate exemptions. Parallelism is deprecated
	// and ignored — it no longer changes how a run executes. Tracer is
	// strictly observational (hook points only read simulation state, and
	// the CI trace-determinism job pins traced output as byte-identical
	// across repeated runs) — so traced runs of one spec are the same
	// experiment and must share a cache entry. (Traced runs bypass cache
	// LOOKUP at the call sites instead, since a hit would skip the
	// simulation the tracer observes.)
	for _, c := range []struct {
		name string
		v    any
		want int
	}{
		{"RunSpec", syncron.RunSpec{}, 3},
		{"Config", syncron.Config{}, 14},
		{"WorkloadParams", syncron.WorkloadParams{}, 6},
	} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%s has %d fields, specKeyRecord covers %d: extend specKeyRecord, "+
				"bump SpecKeyVersion, and re-pin the golden hashes", c.name, got, c.want)
		}
	}
}

// Every spec field must independently change the hash — otherwise two
// different runs would collide on one cache entry.
func TestSpecKeyChangesWithEveryField(t *testing.T) {
	base := syncron.RunSpec{
		Workload: "lock",
		Config:   syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, Seed: 7},
		Params:   syncron.WorkloadParams{Rounds: 4},
	}
	mutations := map[string]func(*syncron.RunSpec){
		"Workload":          func(s *syncron.RunSpec) { s.Workload = "stack" },
		"Scheme":            func(s *syncron.RunSpec) { s.Config.Scheme = syncron.SchemeCentral },
		"Units":             func(s *syncron.RunSpec) { s.Config.Units = 3 },
		"CoresPerUnit":      func(s *syncron.RunSpec) { s.Config.CoresPerUnit = 4 },
		"Memory":            func(s *syncron.RunSpec) { s.Config.Memory = syncron.HMC },
		"MemModel":          func(s *syncron.RunSpec) { s.Config.MemModel = syncron.MemModelBank },
		"Topology":          func(s *syncron.RunSpec) { s.Config.Topology = syncron.TopoRing },
		"LinkLatency":       func(s *syncron.RunSpec) { s.Config.LinkLatency = syncron.Nanosecond },
		"STEntries":         func(s *syncron.RunSpec) { s.Config.STEntries = 16 },
		"Overflow":          func(s *syncron.RunSpec) { s.Config.Overflow = syncron.OverflowDistrib },
		"FairnessThreshold": func(s *syncron.RunSpec) { s.Config.FairnessThreshold = 10 },
		"SEServiceCycles":   func(s *syncron.RunSpec) { s.Config.SEServiceCycles = 5 },
		"Seed":              func(s *syncron.RunSpec) { s.Config.Seed = 8 },
		"Params.Scale":      func(s *syncron.RunSpec) { s.Params.Scale = 0.5 },
		"Params.OpsPerCore": func(s *syncron.RunSpec) { s.Params.OpsPerCore = 9 },
		"Params.Size":       func(s *syncron.RunSpec) { s.Params.Size = 11 },
		"Params.Interval":   func(s *syncron.RunSpec) { s.Params.Interval = 123 },
		"Params.Rounds":     func(s *syncron.RunSpec) { s.Params.Rounds = 5 },
		"Params.Metis":      func(s *syncron.RunSpec) { s.Params.Metis = true },
	}
	seen := map[string]string{syncron.SpecKey(base): "base"}
	for field, mutate := range mutations {
		spec := base
		mutate(&spec)
		key := syncron.SpecKey(spec)
		if prev, dup := seen[key]; dup {
			t.Errorf("mutating %s collides with %s (key %s)", field, prev, key)
		}
		seen[key] = field
	}
	// And the hash must be a pure function of the value.
	if syncron.SpecKey(base) != syncron.SpecKey(base) {
		t.Fatal("SpecKey is not deterministic")
	}
	// Parallelism and Tracer are the deliberate non-semantic fields (see
	// TestSpecKeyCoversEveryField): they must NOT change the key, so a spec
	// that still sets the deprecated Parallelism, and a traced execution,
	// share the plain spec's cache entry.
	par := base
	par.Config.Parallelism = 8 //nolint:staticcheck // asserts the deprecated field stays out of SpecKey
	if syncron.SpecKey(par) != syncron.SpecKey(base) {
		t.Error("the ignored Parallelism field changed the SpecKey")
	}
	traced := base
	traced.Config.Tracer = syncron.NewTraceCollector()
	if syncron.SpecKey(traced) != syncron.SpecKey(base) {
		t.Error("Tracer changed the SpecKey; observation must not affect cache identity")
	}
}

// TestShardsPartitionGrid is the shard partition property: for any shard
// count, the shards of a seed-resolved grid are pairwise disjoint, jointly
// exhaustive, and select specs bit-identical to the unsharded grid (same
// seeds at the same grid indices). No simulation involved.
func TestShardsPartitionGrid(t *testing.T) {
	sw := syncron.Sweep{
		Workloads: []string{"lock", "stack", "queue", "pr.wk"},
		Schemes: []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral,
			syncron.SchemeHier, syncron.SchemeIdeal},
		Units:     []int{1, 2, 4},
		STEntries: []int{16, 64},
		Base:      syncron.Config{CoresPerUnit: 2},
	}
	resolved := syncron.ResolveSeeds(sw.Expand(), 42)
	if len(resolved) != 4*4*3*2 {
		t.Fatalf("grid has %d specs, want %d", len(resolved), 4*4*3*2)
	}
	for _, r := range resolved {
		if r.Config.Seed == 0 {
			t.Fatal("ResolveSeeds left a zero seed")
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16, len(resolved), 997} {
		owner := make(map[int]int)
		for i := 0; i < n; i++ {
			sel := syncron.Shard{Index: i, Count: n}.Select(resolved)
			for _, gridIndex := range sel {
				if prev, dup := owner[gridIndex]; dup {
					t.Fatalf("n=%d: grid index %d in shards %d and %d (not disjoint)", n, gridIndex, prev, i)
				}
				owner[gridIndex] = i
			}
		}
		if len(owner) != len(resolved) {
			t.Fatalf("n=%d: shards cover %d of %d specs (not exhaustive)", n, len(owner), len(resolved))
		}
	}
	// Seed identity: sharding must not depend on, or alter, seed derivation —
	// re-resolving and re-selecting yields the same partition.
	again := syncron.ResolveSeeds(sw.Expand(), 42)
	if !reflect.DeepEqual(resolved, again) {
		t.Fatal("ResolveSeeds is not deterministic")
	}
	if !reflect.DeepEqual(
		syncron.Shard{Index: 1, Count: 3}.Select(resolved),
		syncron.Shard{Index: 1, Count: 3}.Select(again)) {
		t.Fatal("Shard.Select is not deterministic")
	}
}

// serialize renders results both ways for byte comparison.
func serialize(t *testing.T, results []syncron.RunResult) (string, string) {
	t.Helper()
	var j, c bytes.Buffer
	if err := syncron.WriteJSON(&j, results); err != nil {
		t.Fatal(err)
	}
	if err := syncron.WriteCSV(&c, results); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// TestShardedSweepMergesByteIdentical executes a real grid unsharded and as
// 2- and 3-way shard splits, and checks MergeShards reassembles the exact
// JSON and CSV bytes of the unsharded run — the contract the full-grid CI
// matrix relies on.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	sw := tinySweep(2)
	specs := sw.Expand()
	full := syncron.SpecRunner{BaseSeed: sw.BaseSeed, Workers: 2}.Run(specs)
	wantJSON, wantCSV := serialize(t, full)
	for _, n := range []int{2, 3} {
		var shards [][]syncron.RunResult
		for i := 0; i < n; i++ {
			shards = append(shards, syncron.SpecRunner{
				BaseSeed: sw.BaseSeed,
				Workers:  2,
				Shard:    syncron.Shard{Index: i, Count: n},
			}.Run(specs))
		}
		merged, err := syncron.MergeShards(shards...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		gotJSON, gotCSV := serialize(t, merged)
		if gotJSON != wantJSON {
			t.Fatalf("n=%d: merged JSON differs from unsharded run", n)
		}
		if gotCSV != wantCSV {
			t.Fatalf("n=%d: merged CSV differs from unsharded run", n)
		}
	}
}

func TestMergeShardsValidates(t *testing.T) {
	res := func(i int) syncron.RunResult {
		return syncron.RunResult{Spec: syncron.RunSpec{Workload: "lock"}, GridIndex: i}
	}
	if _, err := syncron.MergeShards(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := syncron.MergeShards([]syncron.RunResult{res(0), res(2)}); err == nil {
		t.Error("gapped grid indices accepted")
	}
	if _, err := syncron.MergeShards([]syncron.RunResult{res(0)}, []syncron.RunResult{res(0)}); err == nil {
		t.Error("overlapping shards accepted")
	}
	merged, err := syncron.MergeShards([]syncron.RunResult{res(1)}, []syncron.RunResult{res(0)})
	if err != nil || len(merged) != 2 || merged[0].GridIndex != 0 || merged[1].GridIndex != 1 {
		t.Errorf("valid merge failed: %v %+v", err, merged)
	}
}

// countingCache wraps a ResultCache and counts misses and writes — a probe
// for "did anything actually simulate?", since every simulation under a
// cache is one Get miss followed by one Put.
type countingCache struct {
	inner        syncron.ResultCache
	misses, puts atomic.Uint64
}

func (c *countingCache) Get(key string) ([]byte, bool) {
	payload, ok := c.inner.Get(key)
	if !ok {
		c.misses.Add(1)
	}
	return payload, ok
}

func (c *countingCache) Put(key string, payload []byte) error {
	c.puts.Add(1)
	return c.inner.Put(key, payload)
}

func TestSweepCacheSkipsSimulation(t *testing.T) {
	dir, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := &countingCache{inner: dir}
	sw := tinySweep(2).WithCache(cache)
	first := sw.Run()
	firstJSON, _ := serialize(t, first)
	if got := cache.misses.Load(); got != uint64(len(first)) {
		t.Fatalf("cold cache: %d misses, want %d", got, len(first))
	}
	cache.misses.Store(0)
	cache.puts.Store(0)
	second := sw.Run()
	if m, p := cache.misses.Load(), cache.puts.Load(); m != 0 || p != 0 {
		t.Fatalf("warm cache simulated: %d misses, %d writes; want 0, 0", m, p)
	}
	secondJSON, _ := serialize(t, second)
	if firstJSON != secondJSON {
		t.Fatal("cached replay is not byte-identical to the original run")
	}
}

// A corrupt cache entry must be recomputed, not crash or return garbage.
func TestSweepCorruptCacheEntryRecomputed(t *testing.T) {
	cacheRoot := t.TempDir()
	dir, err := syncron.DirCache(cacheRoot)
	if err != nil {
		t.Fatal(err)
	}
	sw := tinySweep(1).WithCache(dir)
	first := sw.Run()
	entries, err := os.ReadDir(cacheRoot)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache empty after sweep: %v", err)
	}
	if err := os.WriteFile(filepath.Join(cacheRoot, entries[0].Name()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	second := sw.Run()
	a, _ := serialize(t, first)
	b, _ := serialize(t, second)
	if a != b {
		t.Fatal("results differ after cache corruption")
	}
}

func TestCacheOnlyMissFails(t *testing.T) {
	dir, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := tinySweep(1)
	sw.Cache, sw.CacheOnly = dir, true
	for _, r := range sw.Run() {
		if r.Err == "" || !strings.Contains(r.Err, "cache") {
			t.Fatalf("cache-only miss did not fail: %+v", r)
		}
	}
}

// TestCacheResultRebuild replays sweep JSON results into a fresh cache
// (what `merge -cache DIR` does with shard artifacts) and checks a
// cache-only sweep serves byte-identical results from it.
func TestCacheResultRebuild(t *testing.T) {
	sw := tinySweep(1)
	results := sw.Run()
	wantJSON, wantCSV := serialize(t, results)

	dir, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := syncron.CacheResult(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	replay := sw.WithCache(dir)
	replay.CacheOnly = true
	gotJSON, gotCSV := serialize(t, replay.Run())
	if gotJSON != wantJSON || gotCSV != wantCSV {
		t.Fatal("cache-only replay from rebuilt cache is not byte-identical")
	}

	if err := syncron.CacheResult(dir, syncron.RunResult{Err: "boom"}); err == nil {
		t.Error("CacheResult accepted a failed run")
	}
	if err := syncron.CacheResult(dir, syncron.RunResult{}); err == nil {
		t.Error("CacheResult accepted a keyless result")
	}
}

// TestCachedFiguresZeroSimulation is the headline replay guarantee: a second
// figures invocation against a warm cache performs zero simulation runs and
// still renders byte-identical Markdown.
func TestCachedFiguresZeroSimulation(t *testing.T) {
	dir, err := syncron.DirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := &countingCache{inner: dir}
	opt := syncron.FigureOptions{
		Workloads: []string{"lock", "stack"},
		Schemes:   []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeSynCron},
		Scale:     0.02,
		Cache:     cache,
	}
	render := func() string {
		figs, err := syncron.Figures(opt)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, f := range figs {
			if err := f.WriteMarkdown(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	first := render()
	if cache.misses.Load() == 0 || cache.puts.Load() == 0 {
		t.Fatal("cold cache did not populate")
	}
	cache.misses.Store(0)
	cache.puts.Store(0)
	second := render()
	if m, p := cache.misses.Load(), cache.puts.Load(); m != 0 || p != 0 {
		t.Fatalf("warm figures replay simulated: %d misses, %d writes; want 0, 0", m, p)
	}
	if first != second {
		t.Fatal("cached figures replay is not byte-identical")
	}
	// And the strict mode renders the same bytes with simulation forbidden.
	opt.CacheOnly = true
	if render() != first {
		t.Fatal("cache-only figures render differs")
	}
}

// registerWorkloadOnce guards test-workload registration across tests in
// this package (RegisterWorkload panics on duplicates).
var registerWorkloadOnce sync.Map

func registerTestWorkload(w syncron.Workload) {
	if _, loaded := registerWorkloadOnce.LoadOrStore(w.Name(), true); !loaded {
		syncron.RegisterWorkload(w)
	}
}

// failingWorkload fails in Prepare, before any simulation happens.
type failingWorkload struct{}

func (failingWorkload) Name() string               { return "test.prepfail" }
func (failingWorkload) Kind() syncron.WorkloadKind { return "test" }
func (failingWorkload) Prepare(*syncron.System, syncron.WorkloadParams) (*syncron.PreparedRun, error) {
	return nil, fmt.Errorf("deliberate failure")
}

// TestSweepFailFastCancels pins the FailFast contract: after a failure, runs
// that have not started are canceled with an error naming the first failure
// instead of being simulated to completion.
func TestSweepFailFastCancels(t *testing.T) {
	registerTestWorkload(failingWorkload{})
	sw := syncron.Sweep{
		// The failing workload leads the grid; with one worker everything
		// behind it must be canceled, deterministically.
		Workloads: []string{"test.prepfail", "stack", "lock", "queue"},
		Schemes:   []syncron.Scheme{syncron.SchemeSynCron},
		Base:      syncron.Config{Units: 2, CoresPerUnit: 2},
		Params:    syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 6, Rounds: 8},
		Workers:   1,
		BaseSeed:  7,
		FailFast:  true,
	}
	results := sw.Run()
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	if !strings.Contains(results[0].Err, "deliberate failure") {
		t.Fatalf("first result should be the failure: %+v", results[0])
	}
	for _, r := range results[1:] {
		if !strings.Contains(r.Err, "fail-fast") || !strings.Contains(r.Err, "test.prepfail") {
			t.Fatalf("run %s not canceled by fail-fast: %q", r.Spec.Workload, r.Err)
		}
	}
	// Without FailFast the same grid runs everything.
	sw.FailFast = false
	for i, r := range sw.Run() {
		if i > 0 && r.Err != "" {
			t.Fatalf("non-fail-fast sweep canceled %s: %q", r.Spec.Workload, r.Err)
		}
	}
}

// TestWriteCSVEscapesSpecialFields pins CSV quoting on the sweep emitter:
// workload names, kinds, and error strings containing commas, quotes, or
// newlines must round-trip through encoding/csv unharmed. Workload family
// names are one rename away from containing a comma; this is the regression
// net.
func TestWriteCSVEscapesSpecialFields(t *testing.T) {
	nasty := `family,with "quotes" and
newline`
	results := []syncron.RunResult{{
		Spec: syncron.RunSpec{Workload: nasty,
			Config: syncron.Config{Scheme: `sch,"eme`}},
		Kind: `kind,with"comma`,
		Err:  `failed, badly: "panic"`,
	}}
	var buf bytes.Buffer
	if err := syncron.WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse back: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want header + 1", len(rows))
	}
	row := rows[1]
	if row[0] != nasty {
		t.Errorf("workload field corrupted: %q", row[0])
	}
	if row[1] != string(results[0].Kind) || row[2] != string(results[0].Spec.Config.Scheme) {
		t.Errorf("kind/scheme fields corrupted: %q %q", row[1], row[2])
	}
	if row[len(row)-1] != results[0].Err {
		t.Errorf("error field corrupted: %q", row[len(row)-1])
	}
}

// Same contract for the per-figure CSV emitter.
func TestFigureWriteCSVEscapesSpecialFields(t *testing.T) {
	fig := &syncron.Figure{
		ID:      "test",
		Columns: []string{"workload", `odd "column", name`},
		Rows:    [][]string{{`ts,air "v2"`, "1.0"}},
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("figure CSV does not parse back: %v", err)
	}
	if rows[0][1] != fig.Columns[1] || rows[1][0] != fig.Rows[0][0] {
		t.Fatalf("figure CSV fields corrupted: %+v", rows)
	}
}
