package syncron_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"syncron"
)

// synth builds a synthetic successful RunResult for analysis-layer tests; no
// simulation runs.
func synth(workload string, kind syncron.WorkloadKind, scheme syncron.Scheme,
	makespan syncron.Time, mutate ...func(*syncron.RunResult)) syncron.RunResult {
	r := syncron.RunResult{
		Spec: syncron.RunSpec{
			Workload: workload,
			Config:   syncron.Config{Scheme: scheme, Units: 4, CoresPerUnit: 15},
		},
		Kind:     kind,
		Makespan: makespan,
	}
	if makespan > 0 {
		r.Ops = 1000
		r.OpsPerMs = float64(r.Ops) / (makespan.Seconds() * 1e3)
	}
	r.CacheEnergyPJ, r.NetworkEnergyPJ, r.MemoryEnergyPJ = 10, 60, 30
	r.BytesInsideUnits, r.BytesAcrossUnits = 600, 400
	for _, m := range mutate {
		m(&r)
	}
	return r
}

func TestGeomean(t *testing.T) {
	if g := syncron.Geomean(nil); g != 0 {
		t.Fatalf("geomean of nothing = %f, want 0", g)
	}
	if g := syncron.Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %f, want 4", g)
	}
	// Non-positive and non-finite values are ignored, not propagated.
	if g := syncron.Geomean([]float64{2, 8, 0, -3, math.Inf(1), math.NaN()}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean with junk = %f, want 4", g)
	}
}

func TestResultSetGrouping(t *testing.T) {
	rs := syncron.ResultSet{
		synth("a", syncron.KindPrimitive, syncron.SchemeCentral, 100),
		synth("a", syncron.KindPrimitive, syncron.SchemeSynCron, 50),
		synth("b", syncron.KindGraph, syncron.SchemeCentral, 0,
			func(r *syncron.RunResult) { r.Err = "boom" }),
	}
	if got := rs.Ok(); len(got) != 2 {
		t.Fatalf("Ok() = %d results, want 2", len(got))
	}
	if got := rs.Failed(); len(got) != 1 || got[0].Spec.Workload != "b" {
		t.Fatalf("Failed() = %+v, want the one failed run", got)
	}
	if got := rs.Workloads(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Workloads() = %v", got)
	}
	if got := rs.Schemes(); len(got) != 2 || got[0] != syncron.SchemeCentral {
		t.Fatalf("Schemes() = %v", got)
	}
	if got := rs.ByWorkload(); len(got["a"]) != 2 || len(got["b"]) != 1 {
		t.Fatalf("ByWorkload() = %v", got)
	}
}

func TestJoinBaseline(t *testing.T) {
	rs := syncron.ResultSet{
		synth("a", syncron.KindPrimitive, syncron.SchemeCentral, 100),
		synth("a", syncron.KindPrimitive, syncron.SchemeSynCron, 50),
	}
	pairs, err := rs.JoinBaseline(syncron.SchemeCentral)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("joined %d pairs, want 2 (baseline joins itself too)", len(pairs))
	}
	for _, p := range pairs {
		if p.Baseline.Spec.Config.Scheme != syncron.SchemeCentral {
			t.Fatalf("pair joined against %s", p.Baseline.Spec.Config.Scheme)
		}
	}
	// A run at a grid point the baseline never visited is an error, not a
	// silent drop.
	rs = append(rs, synth("a", syncron.KindPrimitive, syncron.SchemeHier, 80,
		func(r *syncron.RunResult) { r.Spec.Config.Units = 2 }))
	if _, err := rs.JoinBaseline(syncron.SchemeCentral); err == nil {
		t.Fatal("missing baseline grid point must fail the join")
	}
	if _, err := rs.JoinBaseline(syncron.SchemeIdeal); err == nil {
		t.Fatal("absent baseline scheme must fail the join")
	}
}

func TestSpeedupVsBaseline(t *testing.T) {
	results := []syncron.RunResult{
		// Different derived seeds must not break the join.
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 100,
			func(r *syncron.RunResult) { r.Spec.Config.Seed = 11 }),
		synth("lock", syncron.KindPrimitive, syncron.SchemeSynCron, 25,
			func(r *syncron.RunResult) { r.Spec.Config.Seed = 22 }),
		synth("stack", syncron.KindDataStructure, syncron.SchemeCentral, 100),
		synth("stack", syncron.KindDataStructure, syncron.SchemeSynCron, 100),
	}
	table, err := syncron.SpeedupVsBaseline(results, syncron.SchemeCentral)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(table.Rows))
	}
	// Rows sort by kind order: primitives before data structures.
	if table.Rows[0].Workload != "lock" || table.Rows[1].Workload != "stack" {
		t.Fatalf("row order: %s, %s", table.Rows[0].Workload, table.Rows[1].Workload)
	}
	lock := table.Rows[0]
	if lock.Speedup[syncron.SchemeCentral] != 1 || lock.Speedup[syncron.SchemeSynCron] != 4 {
		t.Fatalf("lock speedups = %v", lock.Speedup)
	}
	// Geomeans: primitive family {4}, ds family {1}, overall sqrt(4*1)=2.
	if g := table.KindGeomean[syncron.KindPrimitive][syncron.SchemeSynCron]; g != 4 {
		t.Fatalf("primitive geomean = %f, want 4", g)
	}
	if g := table.OverallGeomean[syncron.SchemeSynCron]; math.Abs(g-2) > 1e-12 {
		t.Fatalf("overall geomean = %f, want 2", g)
	}
	if kinds := table.Kinds(); len(kinds) != 2 || kinds[0] != syncron.KindPrimitive {
		t.Fatalf("table kinds = %v", kinds)
	}
}

func TestSpeedupLabelsDisambiguateGridPoints(t *testing.T) {
	results := []syncron.RunResult{
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 100),
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 80,
			func(r *syncron.RunResult) { r.Spec.Config.Units = 2 }),
	}
	table, err := syncron.SpeedupVsBaseline(results, syncron.SchemeCentral)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("%d rows, want one per grid point", len(table.Rows))
	}
	for _, row := range table.Rows {
		if !strings.Contains(row.Label, "u=") {
			t.Fatalf("label %q does not name the varying units axis", row.Label)
		}
	}
}

func TestScalability(t *testing.T) {
	var results []syncron.RunResult
	for units, makespan := range map[int]syncron.Time{1: 100, 2: 60, 4: 40} {
		units, makespan := units, makespan
		results = append(results, synth("pr.wk", syncron.KindGraph, syncron.SchemeSynCron, makespan,
			func(r *syncron.RunResult) { r.Spec.Config.Units = units }))
	}
	// A second workload with a single size contributes no curve.
	results = append(results, synth("lone", syncron.KindGraph, syncron.SchemeSynCron, 10))
	curves, err := syncron.Scalability(results, syncron.SchemeSynCron)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 1 || curves[0].Workload != "pr.wk" {
		t.Fatalf("curves = %+v", curves)
	}
	pts := curves[0].Points
	if len(pts) != 3 || pts[0].Units != 1 || pts[2].Units != 4 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Speedup != 1 || math.Abs(pts[2].Speedup-2.5) > 1e-12 {
		t.Fatalf("speedups = %f, %f; want 1, 2.5", pts[0].Speedup, pts[2].Speedup)
	}
	if _, err := syncron.Scalability(results, syncron.SchemeTTAS); err == nil {
		t.Fatal("no runs of the requested scheme must be an error")
	}
}

// Runs that differ in an axis other than the system size form separate
// scaling curves, each normalized to its own smallest size.
func TestScalabilityCurvesSplitOnOtherAxes(t *testing.T) {
	makespans := map[syncron.Topology][]syncron.Time{
		syncron.TopoAllToAll: {100, 60, 40},
		syncron.TopoRing:     {200, 150, 100},
	}
	var results []syncron.RunResult
	for _, topo := range []syncron.Topology{syncron.TopoAllToAll, syncron.TopoRing} {
		for i, units := range []int{1, 2, 4} {
			results = append(results, synth("pr.wk", syncron.KindGraph, syncron.SchemeSynCron,
				makespans[topo][i], func(r *syncron.RunResult) {
					r.Spec.Config.Units = units
					r.Spec.Config.Topology = topo
				}))
		}
	}
	curves, err := syncron.Scalability(results, syncron.SchemeSynCron)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("got %d curves, want one per topology: %+v", len(curves), curves)
	}
	for i, want := range []float64{2.5, 2} {
		pts := curves[i].Points
		if len(pts) != 3 || pts[0].Units != 1 || pts[2].Units != 4 {
			t.Fatalf("curve %d points = %+v", i, pts)
		}
		if pts[0].Speedup != 1 || math.Abs(pts[2].Speedup-want) > 1e-12 {
			t.Fatalf("curve %d speedups = %f, %f; want 1, %f", i, pts[0].Speedup, pts[2].Speedup, want)
		}
	}
}

func TestEnergyAndTrafficBreakdown(t *testing.T) {
	results := []syncron.RunResult{
		synth("pr.wk", syncron.KindGraph, syncron.SchemeCentral, 100),
		synth("pr.wk", syncron.KindGraph, syncron.SchemeSynCron, 50, func(r *syncron.RunResult) {
			r.CacheEnergyPJ, r.NetworkEnergyPJ, r.MemoryEnergyPJ = 5, 15, 30
			r.BytesInsideUnits, r.BytesAcrossUnits = 400, 100
		}),
	}
	energy, err := syncron.EnergyBreakdown(results, syncron.SchemeCentral)
	if err != nil {
		t.Fatal(err)
	}
	if len(energy) != 2 {
		t.Fatalf("%d energy rows, want 2", len(energy))
	}
	// Baseline total is 10+60+30=100, so the baseline row's Total is 1 and
	// the syncron row's fractions are /100.
	if energy[0].Scheme != syncron.SchemeCentral || energy[0].Total != 1 {
		t.Fatalf("baseline energy row = %+v", energy[0])
	}
	sc := energy[1]
	if sc.Cache != 0.05 || sc.Network != 0.15 || sc.Memory != 0.30 || sc.Total != 0.50 {
		t.Fatalf("syncron energy row = %+v", sc)
	}

	traffic, err := syncron.TrafficBreakdown(results, syncron.SchemeCentral)
	if err != nil {
		t.Fatal(err)
	}
	if traffic[0].Total != 1 || traffic[1].Inside != 0.4 || traffic[1].Across != 0.1 {
		t.Fatalf("traffic rows = %+v", traffic)
	}
}

func TestSTAblation(t *testing.T) {
	mk := func(scheme syncron.Scheme, st int, makespan syncron.Time, overflowed float64) syncron.RunResult {
		return synth("ts.air", syncron.KindTimeSeries, scheme, makespan,
			func(r *syncron.RunResult) {
				r.Spec.Config.STEntries = st
				r.OverflowedFraction = overflowed
			})
	}
	rows, err := syncron.STAblation([]syncron.RunResult{
		mk(syncron.SchemeSynCron, 16, 150, 0.3),
		mk(syncron.SchemeSynCron, 64, 100, 0),
		// The flat variant forms its own curve with its own largest-ST base.
		mk(syncron.SchemeSynCronFlat, 16, 90, 0),
		mk(syncron.SchemeSynCronFlat, 64, 60, 0),
		synth("ts.air", syncron.KindTimeSeries, syncron.SchemeCentral, 500), // ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (non-SynCron schemes ignored)", len(rows))
	}
	// Rows sort by scheme then ST descending; each curve normalizes its
	// slowdown to its own largest-ST run, never the other scheme's.
	hier := rows[:2]
	if hier[0].Scheme != syncron.SchemeSynCron || hier[0].STEntries != 64 || hier[0].SlowdownVsLargest != 1 {
		t.Fatalf("largest-ST row = %+v", hier[0])
	}
	if hier[1].STEntries != 16 || hier[1].SlowdownVsLargest != 1.5 || hier[1].Overflowed != 0.3 {
		t.Fatalf("16-entry row = %+v", hier[1])
	}
	flat := rows[2:]
	if flat[0].Scheme != syncron.SchemeSynCronFlat || flat[0].SlowdownVsLargest != 1 {
		t.Fatalf("flat largest-ST row = %+v", flat[0])
	}
	if flat[1].SlowdownVsLargest != 1.5 {
		t.Fatalf("flat 16-entry slowdown = %f, want 1.5 (vs its own base)", flat[1].SlowdownVsLargest)
	}
}

// Runs that differ in an axis other than the ST size form separate ablation
// curves, each normalized to its own largest-ST run.
func TestSTAblationCurvesSplitOnOtherAxes(t *testing.T) {
	mk := func(units, st int, makespan syncron.Time) syncron.RunResult {
		return synth("ts.air", syncron.KindTimeSeries, syncron.SchemeSynCron, makespan,
			func(r *syncron.RunResult) {
				r.Spec.Config.Units = units
				r.Spec.Config.STEntries = st
			})
	}
	rows, err := syncron.STAblation([]syncron.RunResult{
		mk(1, 64, 100), mk(1, 8, 50),
		mk(4, 64, 400), mk(4, 8, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for i, want := range []float64{1, 1, 0.5, 0.5} {
		if rows[i].SlowdownVsLargest != want {
			t.Fatalf("row %d (ST %d) slowdown = %f, want %f", i, rows[i].STEntries,
				rows[i].SlowdownVsLargest, want)
		}
	}
}

func TestFigureEmitters(t *testing.T) {
	f := &syncron.Figure{
		ID:      "demo",
		Title:   "demo figure",
		Columns: []string{"workload", "x"},
		Rows:    [][]string{{"lock", "1.00"}, {"stack", "2.00"}},
		Notes:   "a note",
	}
	var md bytes.Buffer
	if err := f.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## demo — demo figure", "| workload | x |", "|---|---:|",
		"| lock | 1.00 |", "_a note_"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
	var csv bytes.Buffer
	if err := f.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "workload,x\nlock,1.00\nstack,2.00\n" {
		t.Errorf("csv = %q", got)
	}
}

// TestFiguresEndToEnd runs the real pipeline twice on a tiny grid and checks
// the rendered output is byte-identical — the determinism the figures
// subcommand promises — and structurally complete.
func TestFiguresEndToEnd(t *testing.T) {
	opt := syncron.FigureOptions{
		Workloads: []string{"lock", "stack"},
		Schemes: []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeHier,
			syncron.SchemeSynCron},
		Scale: 0.02,
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
	wantIDs := []string{"## throughput", "## speedup", "## scalability", "## energy",
		"## traffic", "## st-ablation"}
	for _, id := range wantIDs {
		if !strings.Contains(first, id) {
			t.Errorf("figures missing %q", id)
		}
	}
	if !strings.Contains(first, "geomean (primitive)") ||
		!strings.Contains(first, "geomean (all)") {
		t.Error("speedup figure missing geomean rows")
	}
	if strings.Contains(first, "NaN") || strings.Contains(first, "Inf") {
		t.Error("figures contain non-finite cells")
	}
	if second := render(); second != first {
		t.Error("two identical Figures invocations rendered different output")
	}
}

func TestTopologySensitivity(t *testing.T) {
	topo := func(k syncron.Topology, makespan syncron.Time, netPJ float64, across uint64,
		links float64) func(*syncron.RunResult) {
		return func(r *syncron.RunResult) {
			r.Spec.Config.Topology = k
			r.Makespan = makespan
			r.NetworkEnergyPJ = netPJ
			r.BytesAcrossUnits = across
			r.AvgRouteLinks = links
		}
	}
	results := []syncron.RunResult{
		synth("lock", syncron.KindPrimitive, syncron.SchemeSynCron, 0,
			topo(syncron.TopoAllToAll, 100, 60, 400, 1)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeSynCron, 0,
			topo(syncron.TopoRing, 150, 90, 800, 2)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeSynCron, 0,
			topo(syncron.TopoStar, 130, 120, 800, 2)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 0,
			topo(syncron.TopoAllToAll, 200, 60, 400, 1)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 0,
			topo(syncron.TopoRing, 240, 90, 800, 2)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 0,
			topo(syncron.TopoStar, 250, 120, 800, 2)),
	}
	rows, err := syncron.TopologySensitivity(results, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	// Sorted by scheme (central < syncron), then Topologies() order.
	if rows[0].Scheme != syncron.SchemeCentral || rows[0].Topology != syncron.TopoAllToAll {
		t.Fatalf("first row = %+v", rows[0])
	}
	if rows[0].SlowdownVsBase != 1 || rows[0].NetworkEnergyX != 1 || rows[0].LinkBytesX != 1 {
		t.Fatalf("baseline topology not normalized to 1: %+v", rows[0])
	}
	var ring syncron.TopologyRow
	for _, r := range rows {
		if r.Scheme == syncron.SchemeSynCron && r.Topology == syncron.TopoRing {
			ring = r
		}
	}
	if math.Abs(ring.SlowdownVsBase-1.5) > 1e-12 || math.Abs(ring.NetworkEnergyX-1.5) > 1e-12 ||
		math.Abs(ring.LinkBytesX-2) > 1e-12 {
		t.Fatalf("ring row wrong: %+v", ring)
	}
	// Diameter comes from the topology at the run's unit count (ring of 4).
	if ring.Diameter != 2 {
		t.Fatalf("ring diameter = %d, want 2", ring.Diameter)
	}
	// A topology with no baseline counterpart is an error.
	if _, err := syncron.TopologySensitivity(results[1:2], ""); err == nil {
		t.Fatal("missing alltoall baseline not rejected")
	}
}

func TestMemSensitivity(t *testing.T) {
	model := func(m syncron.MemModel, makespan syncron.Time, memPJ, hits float64) func(*syncron.RunResult) {
		return func(r *syncron.RunResult) {
			r.Spec.Config.MemModel = m
			r.Makespan = makespan
			r.MemoryEnergyPJ = memPJ
			r.RowHitRate = hits
		}
	}
	results := []syncron.RunResult{
		synth("lock", syncron.KindPrimitive, syncron.SchemeSynCron, 0,
			model(syncron.MemModelBank, 120, 45, 0.6)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeSynCron, 0,
			model(syncron.MemModelFlat, 100, 30, 0)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 0,
			model(syncron.MemModelFlat, 200, 30, 0)),
		synth("lock", syncron.KindPrimitive, syncron.SchemeCentral, 0,
			model(syncron.MemModelBank, 180, 24, 0.8)),
	}
	rows, err := syncron.MemSensitivity(results, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// Sorted by scheme (central < syncron), then MemModels() order.
	want := []struct {
		scheme            syncron.Scheme
		model             syncron.MemModel
		slowdown, energyX float64
	}{
		{syncron.SchemeCentral, syncron.MemModelFlat, 1, 1},
		{syncron.SchemeCentral, syncron.MemModelBank, 0.9, 0.8},
		{syncron.SchemeSynCron, syncron.MemModelFlat, 1, 1},
		{syncron.SchemeSynCron, syncron.MemModelBank, 1.2, 1.5},
	}
	for i, w := range want {
		r := rows[i]
		if r.Scheme != w.scheme || r.MemModel != w.model ||
			math.Abs(r.SlowdownVsBase-w.slowdown) > 1e-12 || math.Abs(r.MemEnergyX-w.energyX) > 1e-12 {
			t.Fatalf("row %d = %+v, want %s/%s slowdown %v energy x %v", i, r, w.scheme, w.model,
				w.slowdown, w.energyX)
		}
	}
	if rows[3].RowHitRate != 0.6 {
		t.Fatalf("bank row hit rate = %f, want 0.6", rows[3].RowHitRate)
	}
	// A model with no flat counterpart is an error.
	if _, err := syncron.MemSensitivity(results[:1], ""); err == nil {
		t.Fatal("missing flat baseline not rejected")
	}
}

// The topology figure runs a real ≥3-topology × ≥4-scheme grid end to end
// and must be byte-deterministic (the sweep acceptance path of the
// interconnect refactor).
func TestTopologyFigureEndToEnd(t *testing.T) {
	opt := syncron.FigureOptions{
		Workloads: []string{"lock", "stack"},
		Schemes: []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeHier,
			syncron.SchemeSynCron, syncron.SchemeIdeal},
		Topologies: []syncron.Topology{syncron.TopoMesh2D, syncron.TopoRing, syncron.TopoStar},
		Scale:      0.02,
	}
	render := func() string {
		figs, err := syncron.Figures(opt)
		if err != nil {
			t.Fatal(err)
		}
		var topo *syncron.Figure
		for _, f := range figs {
			if f.ID == "topology" {
				topo = f
			}
		}
		if topo == nil {
			t.Fatal("no topology figure emitted despite Topologies option")
		}
		var md, csv bytes.Buffer
		if err := topo.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if err := topo.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return md.String() + csv.String()
	}
	first := render()
	if second := render(); second != first {
		t.Fatalf("topology figure not deterministic:\n%s\nvs\n%s", first, second)
	}
	// The canonical 4 topology workloads x 4 schemes x 4 topologies
	// (alltoall is added as the baseline) = 64 data rows.
	lines := strings.Split(strings.TrimSpace(first), "\n")
	var dataRows int
	for _, l := range lines {
		if strings.HasPrefix(l, "| ") && !strings.HasPrefix(l, "| workload") {
			dataRows++
		}
	}
	if dataRows != 64 {
		t.Fatalf("topology figure has %d data rows, want 64:\n%s", dataRows, first)
	}
	for _, want := range []string{"alltoall", "mesh", "ring", "star"} {
		if !strings.Contains(first, want) {
			t.Fatalf("topology figure missing %q:\n%s", want, first)
		}
	}
}
