package syncron

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Figure is one rendered paper-style artifact: a titled table that can be
// emitted as Markdown (WriteMarkdown) or CSV (WriteCSV). Figures hold
// pre-formatted cells so the two emitters agree exactly.
type Figure struct {
	// ID is a short stable identifier (e.g. "speedup"), used for CSV file
	// names and anchors.
	ID string
	// Title says what the table shows and what it is normalized to.
	Title string
	// Columns and Rows are the table; every row has len(Columns) cells.
	Columns []string
	Rows    [][]string
	// Notes is an optional footnote (e.g. the paper's headline numbers).
	Notes string
}

// WriteMarkdown renders the figure as a GitHub-flavored Markdown table with a
// heading and optional footnote. The first column is left-aligned, the rest
// right-aligned.
func (f *Figure) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", f.ID, f.Title)
	b.WriteString("| " + strings.Join(f.Columns, " | ") + " |\n")
	b.WriteString("|---")
	for range f.Columns[1:] {
		b.WriteString("|---:")
	}
	b.WriteString("|\n")
	for _, row := range f.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "\n_%s_\n", f.Notes)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the figure's columns and rows as CSV, without the title
// and notes.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Columns); err != nil {
		return err
	}
	for _, row := range f.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FigureOptions configures the canonical figure grids of Figures. The zero
// value (with or without Quick) is a valid, deterministic configuration.
type FigureOptions struct {
	// Quick runs a representative 12-workload subset at reduced scale
	// (seconds instead of a minute) — the smoke-test mode of
	// `syncron-sim figures --quick`.
	Quick bool
	// Baseline is the scheme speedups, energy, and traffic are normalized
	// to (default SchemeCentral). It is added to Schemes if missing.
	Baseline Scheme
	// Schemes are the compared schemes (default central, hier, syncron,
	// ideal — the paper's Figure order).
	Schemes []Scheme
	// Workloads overrides the main grid's workload list (default: every
	// registered workload, or the representative subset under Quick).
	Workloads []string
	// Topologies, when non-empty, adds the interconnect sensitivity figure:
	// the topology grid runs topologyWorkloads under every compared scheme
	// for each listed topology (TopoAllToAll is added as the normalization
	// baseline if missing). Leaving it empty skips the figure, keeping the
	// default figure set — and its byte-exact output — unchanged.
	Topologies []Topology
	// MemModels, when non-empty, adds the DRAM-model sensitivity figure: the
	// memory grid runs memoryWorkloads under every compared scheme for each
	// listed model (MemModelFlat is added as the normalization baseline if
	// missing). Leaving it empty skips the figure, keeping the default figure
	// set — and its byte-exact output — unchanged.
	MemModels []MemModel
	// Scale is the workload scale factor (default 0.25, or 0.1 under Quick).
	Scale float64
	// Workers bounds simultaneous runs (default GOMAXPROCS). It affects
	// wall-clock time only, never results.
	Workers int
	// Cache, when non-nil, is consulted before every figure run and fed every
	// newly simulated result (see DirCache): a replay whose grids are fully
	// cached performs zero simulation and still emits byte-identical figures.
	Cache ResultCache
	// CacheOnly forbids simulation: any figure run missing from Cache aborts
	// rendering with an error naming it. This is `figures -from DIR`, which
	// re-renders from a cache an earlier `figures -cache DIR` filled.
	CacheOnly bool
	// Parallelism is ignored, like Config.Parallelism.
	//
	// Deprecated: the intra-run parallel dispatcher was removed; Workers
	// runs figure grids in parallel across runs.
	Parallelism int
	// BaseSeed is the single simulation seed shared by EVERY figure run
	// (default 1). Sharing one seed — rather than deriving per-run seeds
	// from SpecRunner.BaseSeed — guarantees all schemes and ST sizes
	// simulate the identical workload instance, so normalized views compare
	// like with like.
	BaseSeed uint64
	// TraceDir, when non-empty, adds the time-resolved trace figure: a small
	// dedicated grid (traceWorkloads under SchemeSynCron) re-runs with a
	// TraceCollector attached, and the per-workload trace plus its three
	// analysis views (queue depth, link utilization, lock hold times) are
	// written into the directory as CSV files. The traced grid always
	// simulates — it deliberately ignores Cache, since a cache hit skips the
	// simulation the tracer observes — and its output is byte-identical
	// across repeated runs. Leaving it empty skips the figure, keeping the
	// default figure set unchanged.
	TraceDir string
}

// quickWorkloads is the Quick subset: all four primitives, four data
// structures, two graph workloads, and both time-series inputs.
var quickWorkloads = []string{
	"lock", "barrier", "semaphore", "condvar",
	"stack", "queue", "hashtable", "skiplist",
	"pr.wk", "bfs.wk",
	"ts.air", "ts.pow",
}

// scalabilityWorkloads are the Figure-13 scaling subjects (real applications
// — scaling a fixed-size microbenchmark only adds contention); the ST
// ablation uses the sync-intensive stAblationWorkloads (Figure 22 picks
// workloads that actually pressure the table).
var (
	scalabilityWorkloads      = []string{"bfs.sl", "pr.wk", "ts.air", "ts.pow"}
	topologyWorkloads         = []string{"lock", "stack", "pr.wk", "ts.air"}
	memoryWorkloads           = []string{"lock", "stack", "pr.wk", "ts.air"}
	stAblationWorkloads       = []string{"ts.air", "bst_fg"}
	stAblationSizes           = []int{64, 48, 32, 16, 8}
	stAblationSizesQuick      = []int{64, 16, 8}
	scalabilityUnits          = []int{1, 2, 3, 4}
	scalabilityUnitsQuick     = []int{1, 2, 4}
	defaultComparisonBaseline = SchemeCentral
)

// withDefaults resolves the option defaults and guarantees the baseline
// scheme is part of the compared schemes.
func (o FigureOptions) withDefaults() FigureOptions {
	if o.Baseline == "" {
		o.Baseline = defaultComparisonBaseline
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []Scheme{SchemeCentral, SchemeHier, SchemeSynCron, SchemeIdeal}
	}
	o.Schemes = withBase(o.Schemes, o.Baseline)
	if o.Scale == 0 {
		o.Scale = 0.25
		if o.Quick {
			o.Scale = 0.1
		}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = WorkloadNames()
		if o.Quick {
			o.Workloads = quickWorkloads
		}
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	o.Topologies = withBase(o.Topologies, TopoAllToAll)
	o.MemModels = withBase(o.MemModels, MemModelFlat)
	return o
}

// withBase prepends base to a non-empty xs that lacks it, so every
// normalized view finds its baseline runs in the grid. An empty xs (an
// optional figure left out) stays empty.
func withBase[T comparable](xs []T, base T) []T {
	if len(xs) == 0 || slices.Contains(xs, base) {
		return xs
	}
	return append([]T{base}, xs...)
}

// Figures runs the canonical grids and renders the paper's evaluation views:
//
//   - throughput: operations/ms per workload and scheme (Figures 10-11)
//   - speedup: speedup over the baseline scheme with geomean rows per
//     workload family (Figure 12)
//   - scalability: SynCron speedup over its smallest system size (Figure 13)
//   - energy: energy split normalized to the baseline's total (Figure 14)
//   - traffic: data movement normalized to the baseline's total (Figure 15)
//   - st-ablation: ST occupancy, overflow, and slowdown vs ST size
//     (Figure 22 / Table 7)
//   - topology: interconnect sensitivity — slowdown, network energy, and
//     link traffic per topology vs the all-to-all baseline (only when
//     FigureOptions.Topologies is non-empty)
//   - memory: DRAM-model sensitivity — slowdown, memory energy, and row-hit
//     rate per timing model vs the flat baseline (only when
//     FigureOptions.MemModels is non-empty)
//   - trace: time-resolved engine/link/lock summaries from traced re-runs of
//     a small workload subset, with the full traces and their analysis views
//     written into FigureOptions.TraceDir as CSV files (only when TraceDir
//     is non-empty)
//
// Output is deterministic for fixed options: runs get seeds derived from
// BaseSeed and grid position, independent of Workers. A spec Validate
// rejects aborts before any run; any failed run aborts with an error naming
// it.
func Figures(opt FigureOptions) ([]*Figure, error) {
	o := opt.withDefaults()
	grids := figureGridsFor(o)
	for _, s := range grids.sweeps() {
		for _, spec := range s.Expand() {
			if err := spec.Validate(); err != nil {
				return nil, err
			}
		}
	}

	grid, err := runGrid(grids.main)
	if err != nil {
		return nil, err
	}
	table, err := SpeedupVsBaseline(grid, o.Baseline)
	if err != nil {
		return nil, err
	}
	figs := []*Figure{
		throughputFigure(table),
		speedupFigure(table),
	}

	scalGrid, err := runGrid(grids.scalability)
	if err != nil {
		return nil, err
	}
	curves, err := Scalability(scalGrid, SchemeSynCron)
	if err != nil {
		return nil, err
	}
	figs = append(figs, scalabilityFigure(curves, grids.scalUnits))

	energy, err := EnergyBreakdown(grid, o.Baseline)
	if err != nil {
		return nil, err
	}
	figs = append(figs, energyFigure(energy, o.Baseline))

	traffic, err := TrafficBreakdown(grid, o.Baseline)
	if err != nil {
		return nil, err
	}
	figs = append(figs, trafficFigure(traffic, o.Baseline))

	stGrid, err := runGrid(grids.stAblation)
	if err != nil {
		return nil, err
	}
	ablation, err := STAblation(stGrid)
	if err != nil {
		return nil, err
	}
	figs = append(figs, stAblationFigure(ablation))

	if grids.topology != nil {
		topoGrid, err := runGrid(*grids.topology)
		if err != nil {
			return nil, err
		}
		rows, err := TopologySensitivity(topoGrid, TopoAllToAll)
		if err != nil {
			return nil, err
		}
		figs = append(figs, topologyFigure(rows))
	}
	if grids.memory != nil {
		memGrid, err := runGrid(*grids.memory)
		if err != nil {
			return nil, err
		}
		rows, err := MemSensitivity(memGrid, MemModelFlat)
		if err != nil {
			return nil, err
		}
		figs = append(figs, memoryFigure(rows))
	}
	if o.TraceDir != "" {
		fig, err := traceFigure(o)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// FigureSweeps returns the canonical sweeps Figures(opt) runs, in order: the
// main (workload x scheme) grid, the scalability grid, the ST-ablation grid,
// and — only when the corresponding option is non-empty — the topology and
// memory grids. The perfbench figures-quick workload replays exactly these
// grids, so the benchmark runs the same work the figures pipeline does.
func FigureSweeps(opt FigureOptions) []Sweep {
	return figureGridsFor(opt.withDefaults()).sweeps()
}

// sweeps lists the grids in FigureSweeps's order.
func (g figureGrids) sweeps() []Sweep {
	sweeps := []Sweep{g.main, g.scalability, g.stAblation}
	if g.topology != nil {
		sweeps = append(sweeps, *g.topology)
	}
	if g.memory != nil {
		sweeps = append(sweeps, *g.memory)
	}
	return sweeps
}

// figureGrids names the canonical grids so Figures never has to address them
// positionally.
type figureGrids struct {
	main        Sweep
	scalability Sweep
	stAblation  Sweep
	topology    *Sweep // nil unless FigureOptions.Topologies is non-empty
	memory      *Sweep // nil unless FigureOptions.MemModels is non-empty

	// scalUnits is the x-axis of the scalability figure — the same Units list
	// the scalability sweep runs.
	scalUnits []int
}

// figureGridsFor builds the figure grids from already-resolved options.
func figureGridsFor(o FigureOptions) figureGrids {
	scalUnits := scalabilityUnits
	stSizes := stAblationSizes
	if o.Quick {
		scalUnits = scalabilityUnitsQuick
		stSizes = stAblationSizesQuick
	}
	runner := SpecRunner{Workers: o.Workers, Cache: o.Cache, CacheOnly: o.CacheOnly}
	grid := func(workloads []string, schemes []Scheme, scale float64) Sweep {
		return Sweep{
			Workloads:  workloads,
			Schemes:    schemes,
			Params:     WorkloadParams{Scale: scale},
			Base:       Config{Seed: o.BaseSeed},
			SpecRunner: runner,
		}
	}
	g := figureGrids{
		main: grid(o.Workloads, o.Schemes, o.Scale),
		// Scaling needs enough work per core to amortize remote accesses, so
		// the scalability grid runs larger inputs than the main grid (like the
		// paper, whose Figure 13 uses the full-size applications).
		scalability: grid(registeredOnly(scalabilityWorkloads), []Scheme{SchemeSynCron}, o.Scale*5),
		stAblation:  grid(registeredOnly(stAblationWorkloads), []Scheme{SchemeSynCron}, o.Scale),
		scalUnits:   scalUnits,
	}
	g.scalability.Units = scalUnits
	g.stAblation.STEntries = stSizes
	if len(o.Topologies) > 0 {
		topology := grid(registeredOnly(topologyWorkloads), o.Schemes, o.Scale)
		topology.Topologies = o.Topologies
		g.topology = &topology
	}
	if len(o.MemModels) > 0 {
		memory := grid(registeredOnly(memoryWorkloads), o.Schemes, o.Scale)
		memory.MemModels = o.MemModels
		g.memory = &memory
	}
	return g
}

// runGrid executes a sweep and converts any failed run into an error, so
// figures are never silently built from partial grids.
func runGrid(s Sweep) ([]RunResult, error) {
	results := s.Run()
	if err := checkRuns(results); err != nil {
		return nil, err
	}
	return results, nil
}

// checkRuns returns an error naming the first failed run, if any.
func checkRuns(results []RunResult) error {
	for _, r := range ResultSet(results).Failed() {
		return fmt.Errorf("syncron: %s under %s failed: %s",
			r.Spec.Workload, r.Spec.Config.Scheme, r.Err)
	}
	return nil
}

// registeredOnly filters names down to those present in the registry, so the
// canonical figure subsets survive a build with a trimmed workload set.
func registeredOnly(names []string) []string {
	var out []string
	for _, name := range names {
		if _, ok := LookupWorkload(name); ok {
			out = append(out, name)
		}
	}
	return out
}

func throughputFigure(t *SpeedupTable) *Figure {
	f := &Figure{
		ID:      "throughput",
		Title:   "Throughput in operations/ms per scheme (Figures 10-11)",
		Columns: append([]string{"workload"}, schemeColumns(t.Schemes)...),
	}
	for _, row := range t.Rows {
		cells := []string{row.Label}
		for _, s := range t.Schemes {
			cells = append(cells, fmtF1(row.Throughput[s]))
		}
		f.Rows = append(f.Rows, cells)
	}
	return f
}

func speedupFigure(t *SpeedupTable) *Figure {
	f := &Figure{
		ID: "speedup",
		Title: fmt.Sprintf("Speedup normalized to %s, geomean per workload family (Figure 12)",
			t.Baseline),
		Columns: append([]string{"workload"}, schemeColumns(t.Schemes)...),
		Notes: "paper AVG (26 applications): Hier 1.19x, SynCron 1.47x, Ideal 1.62x over Central; " +
			"SynCron within 9.5% of Ideal",
	}
	emitGeomean := func(label string, by map[Scheme]float64) {
		cells := []string{"**" + label + "**"}
		for _, s := range t.Schemes {
			cells = append(cells, "**"+fmtF2(by[s])+"**")
		}
		f.Rows = append(f.Rows, cells)
	}
	kinds := t.Kinds()
	for _, kind := range kinds {
		for _, row := range t.Rows {
			if row.Kind != kind {
				continue
			}
			cells := []string{row.Label}
			for _, s := range t.Schemes {
				cells = append(cells, fmtF2(row.Speedup[s]))
			}
			f.Rows = append(f.Rows, cells)
		}
		emitGeomean("geomean ("+string(kind)+")", t.KindGeomean[kind])
	}
	if len(kinds) > 1 {
		emitGeomean("geomean (all)", t.OverallGeomean)
	}
	return f
}

func scalabilityFigure(curves []ScalabilityCurve, units []int) *Figure {
	f := &Figure{
		ID:    "scalability",
		Title: "SynCron speedup over its smallest configuration vs NDP units (Figure 13)",
		Notes: "paper: 2.03x on average at 4 NDP units (range 1.32x-3.03x)",
	}
	f.Columns = []string{"workload"}
	for _, u := range units {
		f.Columns = append(f.Columns, fmt.Sprintf("%d unit(s)", u))
	}
	for _, c := range curves {
		cells := []string{c.Workload}
		byUnits := map[int]ScalabilityPoint{}
		for _, pt := range c.Points {
			byUnits[pt.Units] = pt
		}
		for _, u := range units {
			if pt, ok := byUnits[u]; ok {
				cells = append(cells, fmtF2(pt.Speedup))
			} else {
				cells = append(cells, "-")
			}
		}
		f.Rows = append(f.Rows, cells)
	}
	return f
}

func energyFigure(rows []EnergyRow, baseline Scheme) *Figure {
	f := &Figure{
		ID: "energy",
		Title: fmt.Sprintf("Energy split (cache/network/memory), normalized to %s total = 1.0 (Figure 14)",
			baseline),
		Columns: []string{"workload", "scheme", "cache", "network", "memory", "total"},
		Notes:   "paper: SynCron reduces energy 2.22x vs Central and 1.94x vs Hier, within 6.2% of Ideal",
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{r.Label, string(r.Scheme),
			fmtF2(r.Cache), fmtF2(r.Network), fmtF2(r.Memory), fmtF2(r.Total)})
	}
	return f
}

func trafficFigure(rows []TrafficRow, baseline Scheme) *Figure {
	f := &Figure{
		ID: "traffic",
		Title: fmt.Sprintf("Data movement inside/across NDP units, normalized to %s total = 1.0 (Figure 15)",
			baseline),
		Columns: []string{"workload", "scheme", "inside", "across", "total"},
		Notes:   "paper: SynCron reduces data movement 2.08x vs Central and 2.04x vs Hier",
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{r.Label, string(r.Scheme),
			fmtF2(r.Inside), fmtF2(r.Across), fmtF2(r.Total)})
	}
	return f
}

func stAblationFigure(rows []OccupancyRow) *Figure {
	f := &Figure{
		ID:      "st-ablation",
		Title:   "SynCron ST occupancy, overflow, and slowdown vs ST size (Figure 22 / Table 7)",
		Columns: []string{"workload", "ST entries", "ops/ms", "slowdown", "max occ", "mean occ", "overflowed"},
		Notes: "paper: graphs never overflow at 64 entries; time series overflows below 48 entries " +
			"with small slowdowns",
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{r.Workload, fmt.Sprint(r.STEntries),
			fmtF1(r.OpsPerMs), fmtF2(r.SlowdownVsLargest),
			fmtPct(r.MaxOccupancy), fmtPct(r.MeanOccupancy), fmtPct(r.Overflowed)})
	}
	return f
}

func topologyFigure(rows []TopologyRow) *Figure {
	f := &Figure{
		ID: "topology",
		Title: fmt.Sprintf("Interconnect sensitivity: slowdown, network energy, and link traffic vs %s",
			TopoAllToAll),
		Columns: []string{"workload", "scheme", "topology", "diameter", "avg links",
			"ops/ms", "slowdown", "net energy x", "link bytes x"},
		Notes: "slowdown/energy/traffic are relative to the alltoall run of the same workload, " +
			"scheme, and grid point (alltoall = 1.00); multi-hop topologies pay energy per link traversed",
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{r.Workload, string(r.Scheme), string(r.Topology),
			fmt.Sprint(r.Diameter), fmtF2(r.AvgRouteLinks), fmtF1(r.OpsPerMs),
			fmtF2(r.SlowdownVsBase), fmtF2(r.NetworkEnergyX), fmtF2(r.LinkBytesX)})
	}
	return f
}

func memoryFigure(rows []MemRow) *Figure {
	f := &Figure{
		ID: "memory",
		Title: fmt.Sprintf("DRAM-model sensitivity: slowdown, memory energy, and row locality vs %s",
			MemModelFlat),
		Columns: []string{"workload", "scheme", "mem model", "row hit rate",
			"ops/ms", "slowdown", "mem energy x"},
		Notes: "slowdown/energy are relative to the flat-model run of the same workload, scheme, " +
			"and grid point (flat = 1.00); the bank model rewards row locality with column-only " +
			"hits and activate/precharge energy savings",
	}
	for _, r := range rows {
		f.Rows = append(f.Rows, []string{r.Workload, string(r.Scheme), string(r.MemModel),
			fmtPct(r.RowHitRate), fmtF1(r.OpsPerMs),
			fmtF2(r.SlowdownVsBase), fmtF2(r.MemEnergyX)})
	}
	return f
}

// schemeColumns renders scheme names as column headers.
func schemeColumns(schemes []Scheme) []string {
	var cols []string
	for _, s := range schemes {
		cols = append(cols, string(s))
	}
	return cols
}

func fmtF1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func fmtF2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
