package syncron

import (
	"fmt"
	"strings"

	"syncron/internal/hwmodel"
	"syncron/internal/workloads/ds"
	"syncron/internal/workloads/graphs"
	"syncron/internal/workloads/ubench"
)

// PaperArtifact is one table or figure of the paper's evaluation (§6). Each
// artifact has one implementation: either a Build of its own, or a View of
// the Figures output that already renders it.
type PaperArtifact struct {
	// ID is the artifact's stable identifier, e.g. "fig10" or "table7".
	ID string
	// Paper names the artifact in the paper, e.g. "Figure 10".
	Paper string
	// Brief says what the artifact shows.
	Brief string
	// View, when set, is the ID of the Figures view that renders this
	// artifact; such an artifact has no Build.
	View string
	// Build regenerates the artifact at a workload scale factor (1 = the
	// repository's default sizes; the paper's absolute sizes are larger but
	// shape-equivalent). Every run uses seed 1, so the output is the same at
	// any worker count. A failed run is returned as an error naming it.
	Build func(scale float64) ([]*Figure, error)
}

// PaperArtifacts returns every artifact of the paper's evaluation in paper
// order, plus two ablations of design choices the paper leaves open.
func PaperArtifacts() []PaperArtifact {
	return []PaperArtifact{
		{ID: "table1", Paper: "Table 1", Build: buildTable1,
			Brief: "Throughput of coherence-based lock algorithms (TTAS, Hierarchical Ticket Lock) on a simulated 2-socket NUMA machine"},
		{ID: "fig2", Paper: "Figure 2", Build: buildFig2,
			Brief: "Slowdown of a lock-based stack with a MESI coherence lock vs an ideal zero-cost lock"},
		{ID: "fig10", Paper: "Figure 10", Build: buildFig10,
			Brief: "Speedup of the four synchronization primitives vs instruction interval (60 cores, single variable)"},
		{ID: "fig11", Paper: "Figure 11", Build: buildFig11,
			Brief: "Throughput of the nine pointer-chasing data structures, 15-60 cores, all schemes"},
		{ID: "fig12", Paper: "Figure 12", View: "speedup",
			Brief: "Speedup of all schemes over Central across the application-input combinations"},
		{ID: "fig13", Paper: "Figure 13", View: "scalability",
			Brief: "Scalability of real applications with SynCron, 1-4 NDP units"},
		{ID: "fig14", Paper: "Figure 14", View: "energy",
			Brief: "Energy breakdown (cache / network / memory) in real applications"},
		{ID: "fig15", Paper: "Figure 15", View: "traffic",
			Brief: "Data movement inside/across NDP units in real applications"},
		{ID: "fig16", Paper: "Figure 16", Build: buildFig16,
			Brief: "High-contention throughput (stack, priority queue) vs inter-unit link transfer latency"},
		{ID: "fig17", Paper: "Figure 17", Build: buildFig17,
			Brief: "pr.wk slowdown vs Ideal as inter-unit link latency grows (low contention)"},
		{ID: "fig18", Paper: "Figure 18", Build: buildFig18,
			Brief: "Speedup with different memory technologies (HBM / HMC / DDR4)"},
		{ID: "fig19", Paper: "Figure 19", Build: buildFig19,
			Brief: "Effect of better graph partitioning (METIS stand-in) on pagerank"},
		{ID: "fig20", Paper: "Figure 20", Build: buildFig20,
			Brief: "SynCron vs flat on low-contention, sync-non-intensive graph workloads"},
		{ID: "fig21", Paper: "Figure 21", Build: buildFig21,
			Brief: "SynCron vs flat: (a) time series across link latencies, (b) queue under high contention"},
		{ID: "fig22", Paper: "Figure 22", View: "st-ablation",
			Brief: "Performance sensitivity to ST size (64 down to 8 entries)"},
		{ID: "fig23", Paper: "Figure 23", Build: buildFig23,
			Brief: "BST_FG throughput under the three overflow schemes, varying ST size"},
		{ID: "table7", Paper: "Table 7", Build: buildTable7,
			Brief: "ST occupancy (max and time-weighted average) across all 26 workloads"},
		{ID: "table8", Paper: "Table 8", Build: buildTable8,
			Brief: "SE area/power vs an ARM Cortex-A7 (analytic SRAM/logic model at 40nm)"},
		{ID: "ablation-fairness", Paper: "§4.4.2", Build: buildAblationFairness,
			Brief: "Lock-fairness threshold sweep: throughput vs per-unit grant batching on a contended lock"},
		{ID: "ablation-seservice", Paper: "§5 (SE model)", Build: buildAblationSEService,
			Brief: "Sensitivity of SynCron's gains to the SE per-message service time (paper assumes 12 SE cycles)"},
	}
}

// LookupPaperArtifact returns the artifact with the given ID.
func LookupPaperArtifact(id string) (PaperArtifact, bool) {
	for _, a := range PaperArtifacts() {
		if a.ID == id {
			return a, true
		}
	}
	return PaperArtifact{}, false
}

// paperSeed is the seed of every paper-artifact run: one seed for all
// schemes and sizes, so each comparison runs the identical workload instance.
const paperSeed = 1

// paperSchemes is the paper's column order of the four main comparison
// points.
var paperSchemes = []Scheme{SchemeCentral, SchemeHier, SchemeSynCron, SchemeIdeal}

// linkLatencies are the inter-unit latencies of Figures 17 and 21.
var linkLatencies = []Time{40 * Nanosecond, 100 * Nanosecond, 200 * Nanosecond, 500 * Nanosecond}

// paperBatch collects one artifact's runs so they simulate together on a
// worker pool. add returns a slot that holds the run's result once figures
// has run the batch; row defers a row's cells until then.
type paperBatch struct {
	specs []RunSpec
	slots []*RunResult
	rows  []pendingRow
}

type pendingRow struct {
	fig   *Figure
	cells func() []string
}

func (b *paperBatch) add(workload string, cfg Config, p WorkloadParams) *RunResult {
	cfg.Seed = paperSeed
	b.specs = append(b.specs, RunSpec{Workload: workload, Config: cfg, Params: p})
	slot := new(RunResult)
	b.slots = append(b.slots, slot)
	return slot
}

// schemes adds one run per paperSchemes entry, in that order.
func (b *paperBatch) schemes(workload string, cfg Config, p WorkloadParams) []*RunResult {
	var rs []*RunResult
	for _, s := range paperSchemes {
		cfg.Scheme = s
		rs = append(rs, b.add(workload, cfg, p))
	}
	return rs
}

func (b *paperBatch) row(f *Figure, cells func() []string) {
	b.rows = append(b.rows, pendingRow{f, cells})
}

// figures runs the batch, appends the deferred rows in the order they were
// added, and returns figs.
func (b *paperBatch) figures(figs ...*Figure) ([]*Figure, error) {
	results := SpecRunner{}.Run(b.specs)
	if err := checkRuns(results); err != nil {
		return nil, err
	}
	for i, r := range results {
		*b.slots[i] = r
	}
	for _, r := range b.rows {
		r.fig.Rows = append(r.fig.Rows, r.cells())
	}
	return figs, nil
}

// ratio formats num's makespan over den's with two decimals: den's speedup
// over num, or num's slowdown relative to den.
func ratio(num, den *RunResult) string {
	return fmtF2(float64(num.Makespan) / float64(den.Makespan))
}

// speedups formats each run's speedup over base.
func speedups(base *RunResult, runs ...*RunResult) []string {
	var cells []string
	for _, r := range runs {
		cells = append(cells, ratio(base, r))
	}
	return cells
}

// paperCombos is the paper's 26 application-input combinations (Figure 12):
// every graph application on every input, then both time-series inputs.
func paperCombos() []string {
	var out []string
	for _, app := range graphs.Apps() {
		for _, in := range graphs.Inputs() {
			out = append(out, app+"."+in)
		}
	}
	return append(out, "ts.air", "ts.pow")
}

// dsSize scales Table-6 sizes; pointer-heavy structures are kept within
// simulation-friendly bounds while preserving their relative shapes.
// The array map always has 10 entries.
func dsSize(name string, scale float64) int {
	if name == "arraymap" {
		return 10
	}
	base := map[string]int{
		"stack": 2048, "queue": 2048, "priorityqueue": 1024, "skiplist": 512,
		"hashtable": 512, "linkedlist": 256, "bst_fg": 512, "bst_drachsler": 512,
	}[name]
	return max(int(float64(base)*scale), 32)
}

// seq returns lo, lo+1, ..., lo+n-1.
func seq(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// runPinnedLock runs an empty-critical-section lock loop with one thread
// pinned to each listed core. Pinning is not expressible as a registered
// workload, so it drives a System directly; a simulator panic comes back as
// an error.
func runPinnedLock(cfg Config, pinned []int, rounds int, interval int64) (rep Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("syncron: pinned lock under %s failed: %v", cfg.Scheme, p)
		}
	}()
	cfg.Seed = paperSeed
	sys := New(cfg)
	lock := sys.AllocLocal(0, 64)
	for _, c := range pinned {
		sys.SpawnAt(c, func(ctx *Context) {
			for k := 0; k < rounds; k++ {
				ctx.Lock(lock)
				ctx.Unlock(lock)
				ctx.Compute(interval)
			}
		})
	}
	return sys.Run(), nil
}

// mopsPerSec is throughput in million operations per second.
func mopsPerSec(ops int, makespan Time) float64 {
	return float64(ops) / makespan.Seconds() / 1e6
}

func buildTable1(scale float64) ([]*Figure, error) {
	rounds := max(int(400*scale), 40)
	// Two sockets x 14 cores, like the Intel Xeon Gold server.
	cases := []struct {
		label  string
		pinned []int
	}{
		{"1 thread", []int{0}},
		{"14 threads single-socket", seq(0, 14)},
		{"2 threads same-socket", []int{0, 1}},
		{"2 threads different-socket", []int{0, 14}},
	}
	f := &Figure{ID: "table1",
		Title:   "Million lock operations per second (coherence-based locks, 2-socket NUMA)",
		Columns: []string{"algorithm"},
		Notes: "paper (real Xeon): TTAS 8.92/2.28/9.91/4.32; HTL 8.06/2.91/9.01/6.79 Mops/s — " +
			"expect the same qualitative drops, not the same absolute numbers",
	}
	for _, c := range cases {
		f.Columns = append(f.Columns, c.label)
	}
	for _, alg := range []Scheme{SchemeTTAS, SchemeHTL} {
		row := []string{string(alg)}
		for _, c := range cases {
			rep, err := runPinnedLock(Config{Scheme: alg, Units: 2, CoresPerUnit: 14}, c.pinned, rounds, 60)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtF2(mopsPerSec(rounds*len(c.pinned), rep.Makespan)))
		}
		f.Rows = append(f.Rows, row)
	}
	return []*Figure{f}, nil
}

func buildFig2(scale float64) ([]*Figure, error) {
	var b paperBatch
	p := WorkloadParams{Size: dsSize("stack", scale), OpsPerCore: max(int(60*scale), 10)}
	slowdownRow := func(f *Figure, label string, units, cores int) {
		ideal := b.add("stack", Config{Scheme: SchemeIdeal, Units: units, CoresPerUnit: cores}, p)
		mesi := b.add("stack", Config{Scheme: SchemeMESILock, Units: units, CoresPerUnit: cores}, p)
		b.row(f, func() []string {
			return []string{label, ideal.Makespan.String(), mesi.Makespan.String(), ratio(mesi, ideal)}
		})
	}
	ta := &Figure{ID: "fig2a",
		Title:   "Stack slowdown (mesi-lock / ideal-lock), single NDP unit",
		Columns: []string{"NDP cores", "ideal-lock", "mesi-lock", "slowdown"},
		Notes:   "paper: slowdown grows with cores, 2.03x at 60 cores",
	}
	for _, cores := range []int{15, 30, 45, 60} {
		slowdownRow(ta, fmt.Sprint(cores), 1, cores)
	}
	tb := &Figure{ID: "fig2b",
		Title:   "Stack slowdown (mesi-lock / ideal-lock), 60 cores across NDP units",
		Columns: []string{"NDP units", "ideal-lock", "mesi-lock", "slowdown"},
		Notes:   "paper: slowdown grows with units, 2.66x at 4 units",
	}
	for _, units := range []int{1, 2, 3, 4} {
		slowdownRow(tb, fmt.Sprint(units), units, 60/units)
	}
	return b.figures(ta, tb)
}

func buildFig10(scale float64) ([]*Figure, error) {
	var b paperBatch
	rounds := max(int(60*scale), 10)
	intervals := map[ubench.Primitive][]int64{
		ubench.Lock:      {50, 100, 200, 400, 1000, 2000, 5000},
		ubench.Barrier:   {20, 50, 100, 200, 500, 1000, 2000},
		ubench.Semaphore: {100, 200, 400, 1000, 2000, 5000, 10000},
		ubench.CondVar:   {200, 400, 1000, 2000, 5000, 10000, 50000},
	}
	var figs []*Figure
	for _, prim := range ubench.Primitives() {
		f := &Figure{ID: "fig10-" + string(prim),
			Title:   fmt.Sprintf("%s: speedup vs Central, varying instructions between sync points", prim),
			Columns: append([]string{"interval"}, schemeColumns(paperSchemes)...),
			Notes:   "paper @200 instr: SynCron outperforms Central 3.05x and Hier 1.40x on average across primitives",
		}
		for _, iv := range intervals[prim] {
			rs := b.schemes(string(prim), Config{}, WorkloadParams{Interval: iv, Rounds: rounds})
			b.row(f, func() []string { return append([]string{fmt.Sprint(iv)}, speedups(rs[0], rs...)...) })
		}
		figs = append(figs, f)
	}
	return b.figures(figs...)
}

// opsPerMs formats each run's throughput in operations/ms, one decimal.
func opsPerMs(runs ...*RunResult) []string {
	var cells []string
	for _, r := range runs {
		cells = append(cells, fmtF1(r.OpsPerMs))
	}
	return cells
}

func buildFig11(scale float64) ([]*Figure, error) {
	var b paperBatch
	ops := max(int(40*scale), 8)
	var figs []*Figure
	for _, name := range ds.Names() {
		f := &Figure{ID: "fig11-" + name,
			Title:   fmt.Sprintf("%s: operations/ms vs NDP cores", name),
			Columns: append([]string{"cores"}, schemeColumns(paperSchemes)...),
		}
		p := WorkloadParams{Size: dsSize(name, scale), OpsPerCore: ops}
		for _, units := range []int{1, 2, 3, 4} {
			rs := b.schemes(name, Config{Units: units, CoresPerUnit: 15}, p)
			b.row(f, func() []string { return append([]string{fmt.Sprint(units * 15)}, opsPerMs(rs...)...) })
		}
		figs = append(figs, f)
	}
	return b.figures(figs...)
}

func buildFig16(scale float64) ([]*Figure, error) {
	var b paperBatch
	ops := max(int(30*scale), 8)
	latencies := []Time{40 * Nanosecond, 100 * Nanosecond, 200 * Nanosecond, 500 * Nanosecond,
		1 * Microsecond, 2 * Microsecond, 4500 * Nanosecond, 9 * Microsecond}
	var figs []*Figure
	for _, name := range []string{"stack", "priorityqueue"} {
		f := &Figure{ID: "fig16-" + name,
			Title:   fmt.Sprintf("%s: operations/ms vs inter-unit transfer latency (60 cores)", name),
			Columns: append([]string{"latency"}, schemeColumns(paperSchemes)...),
			Notes:   "paper: SynCron and Hier hide slow links; Central collapses; SynCron beats Hier ~1.04-1.06x",
		}
		p := WorkloadParams{Size: dsSize(name, scale), OpsPerCore: ops}
		for _, lat := range latencies {
			rs := b.schemes(name, Config{LinkLatency: lat}, p)
			b.row(f, func() []string { return append([]string{lat.String()}, opsPerMs(rs...)...) })
		}
		figs = append(figs, f)
	}
	return b.figures(figs...)
}

func buildFig17(scale float64) ([]*Figure, error) {
	var b paperBatch
	f := &Figure{ID: "fig17",
		Title:   "pr.wk: slowdown over Ideal per link latency",
		Columns: []string{"latency", "ideal", "syncron", "hier", "central"},
		Notes:   "paper @500ns: SynCron 1.17, Hier 1.37, Central 2.67 over Ideal",
	}
	for _, lat := range linkLatencies {
		rs := b.schemes("pr.wk", Config{LinkLatency: lat}, WorkloadParams{Scale: scale})
		central, hier, syncron, ideal := rs[0], rs[1], rs[2], rs[3]
		b.row(f, func() []string {
			return []string{lat.String(), "1.00", ratio(syncron, ideal), ratio(hier, ideal), ratio(central, ideal)}
		})
	}
	return b.figures(f)
}

func buildFig18(scale float64) ([]*Figure, error) {
	var b paperBatch
	f := &Figure{ID: "fig18",
		Title:   "Speedup over Central per memory technology",
		Columns: append([]string{"workload", "memory"}, schemeColumns(paperSchemes)...),
		Notes:   "paper: SynCron's edge over Hier grows with memory latency (ts.pow: 1.41x HBM -> 2.49x DDR4)",
	}
	for _, name := range []string{"cc.wk", "pr.wk", "ts.pow"} {
		for _, tech := range []MemoryTech{HBM, HMC, DDR4} {
			rs := b.schemes(name, Config{Memory: tech}, WorkloadParams{Scale: scale})
			b.row(f, func() []string { return append([]string{name, tech.String()}, speedups(rs[0], rs...)...) })
		}
	}
	return b.figures(f)
}

func buildFig19(scale float64) ([]*Figure, error) {
	var b paperBatch
	f := &Figure{ID: "fig19",
		Title:   "pagerank: speedup over Central/no-partitioning; SynCron max ST occupancy",
		Columns: append(append([]string{"graph", "partition"}, schemeColumns(paperSchemes)...), "maxST"),
		Notes:   "paper: with METIS, SynCron still wins and max ST occupancy drops (62->39% on wk)",
	}
	for _, input := range graphs.Inputs() {
		name := "pr." + input
		hash := b.schemes(name, Config{}, WorkloadParams{Scale: scale})
		metis := b.schemes(name, Config{}, WorkloadParams{Scale: scale, Metis: true})
		for _, part := range []struct {
			label string
			rs    []*RunResult
		}{{"hash", hash}, {"metis-like", metis}} {
			b.row(f, func() []string {
				cells := append([]string{name, part.label}, speedups(hash[0], part.rs...)...)
				return append(cells, fmtPct(part.rs[2].STOccupancyMax))
			})
		}
	}
	return b.figures(f)
}

func buildFig20(scale float64) ([]*Figure, error) {
	var b paperBatch
	f := &Figure{ID: "fig20",
		Title:   "Speedup of SynCron normalized to flat (40ns links)",
		Columns: []string{"workload", "syncron/flat"},
		Notes:   "paper: SynCron within 1.1% of flat on average in this regime",
	}
	var sync, flat []*RunResult
	for _, name := range paperCombos() {
		if strings.HasPrefix(name, "ts.") {
			continue // Figure 20 is graphs only
		}
		sc := b.add(name, Config{Scheme: SchemeSynCron}, WorkloadParams{Scale: scale})
		fl := b.add(name, Config{Scheme: SchemeSynCronFlat}, WorkloadParams{Scale: scale})
		sync, flat = append(sync, sc), append(flat, fl)
		b.row(f, func() []string { return []string{name, ratio(fl, sc)} })
	}
	b.row(f, func() []string {
		var sum float64
		for i := range sync {
			sum += float64(flat[i].Makespan) / float64(sync[i].Makespan)
		}
		return []string{"AVG", fmtF2(sum / float64(len(sync)))}
	})
	return b.figures(f)
}

func buildFig21(scale float64) ([]*Figure, error) {
	var b paperBatch
	latencyColumns := []string{"40ns", "100ns", "200ns", "500ns"}
	// flatRow adds a SynCron and a flat run per link latency, and a row of
	// SynCron's speedup over flat.
	flatRow := func(f *Figure, label, workload string, cfg Config, p WorkloadParams) {
		var sync, flat []*RunResult
		for _, lat := range linkLatencies {
			cfg.LinkLatency = lat
			cfg.Scheme = SchemeSynCron
			sync = append(sync, b.add(workload, cfg, p))
			cfg.Scheme = SchemeSynCronFlat
			flat = append(flat, b.add(workload, cfg, p))
		}
		b.row(f, func() []string {
			row := []string{label}
			for i := range sync {
				row = append(row, ratio(flat[i], sync[i]))
			}
			return row
		})
	}
	ta := &Figure{ID: "fig21a",
		Title:   "Speedup of SynCron over flat, time series (low contention, sync-intensive)",
		Columns: append([]string{"input"}, latencyColumns...),
		Notes:   "paper: flat slightly wins (SynCron 3.6-7.3% worse) at low contention",
	}
	for _, name := range []string{"ts.air", "ts.pow"} {
		flatRow(ta, name, name, Config{}, WorkloadParams{Scale: scale * 0.5})
	}
	tb := &Figure{ID: "fig21b",
		Title:   "Speedup of SynCron over flat, queue (high contention)",
		Columns: append([]string{"cores"}, latencyColumns...),
		Notes:   "paper: SynCron beats flat 1.23-2.14x, growing with link latency and core count",
	}
	p := WorkloadParams{Size: dsSize("queue", scale), OpsPerCore: max(int(30*scale), 8)}
	for _, units := range []int{2, 4} {
		flatRow(tb, fmt.Sprint(units*15), "queue", Config{Units: units}, p)
	}
	return b.figures(ta, tb)
}

func buildFig23(scale float64) ([]*Figure, error) {
	var b paperBatch
	// Overflow pressure needs a deep tree (many concurrently-held
	// lock-coupling pairs); use a larger size than the shared scale.
	p := WorkloadParams{Size: dsSize("bst_fg", scale*8), OpsPerCore: max(int(20*scale), 6)}
	f := &Figure{ID: "fig23",
		Title:   "BST_FG operations/ms by overflow scheme and ST size (60 cores)",
		Columns: []string{"ST size", "SynCron", "CentralOvrfl", "DistribOvrfl", "overflowed"},
		Notes: "paper @64 entries (30.5% overflowed): integrated scheme loses 3.2%, " +
			"CentralOvrfl 12.3%, DistribOvrfl 10.4%",
	}
	for _, st := range []int{16, 32, 48, 64, 128, 256} {
		var rs []*RunResult
		for _, policy := range []OverflowPolicy{OverflowIntegrated, OverflowCentral, OverflowDistrib} {
			rs = append(rs, b.add("bst_fg", Config{Scheme: SchemeSynCron, STEntries: st, Overflow: policy}, p))
		}
		b.row(f, func() []string {
			cells := append([]string{fmt.Sprint(st)}, opsPerMs(rs...)...)
			return append(cells, fmtPct(rs[0].OverflowedFraction))
		})
	}
	return b.figures(f)
}

func buildTable7(scale float64) ([]*Figure, error) {
	var b paperBatch
	f := &Figure{ID: "table7",
		Title:   "SynCron ST occupancy in real applications",
		Columns: []string{"workload", "max", "avg"},
		Notes:   "paper: graphs max 46-63%, avg 1.2-6.1%; ts max 84-89%, avg ~44%",
	}
	for _, name := range paperCombos() {
		r := b.add(name, Config{Scheme: SchemeSynCron}, WorkloadParams{Scale: scale})
		b.row(f, func() []string { return []string{name, fmtPct(r.STOccupancyMax), fmtPct(r.STOccupancyMean)} })
	}
	return b.figures(f)
}

func buildTable8(float64) ([]*Figure, error) {
	se := hwmodel.DefaultSE()
	est := se.Estimate()
	mm2 := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	return []*Figure{{ID: "table8",
		Title:   "Synchronization Engine hardware cost",
		Columns: []string{"component", "bytes", "area (mm^2)", "power (mW)"},
		Rows: [][]string{
			{"SPU (logic)", "-", mm2(est.SPUAreaMM2), fmtF2(est.SPUPowerMW)},
			{"ST (64 x 149b)", fmt.Sprint(se.STBytes()), mm2(est.STAreaMM2), fmtF2(est.STPowerMW)},
			{"Indexing counters (256)", fmt.Sprint(se.CounterBytes()), mm2(est.CountersAreaMM2), fmtF2(est.CountersPowerMW)},
			{"SE total", "-", mm2(est.TotalAreaMM2()), fmtF2(est.TotalPowerMW())},
			{"ARM Cortex-A7 (28nm, 32KB L1)", "-", "0.4500", "100.00"},
		},
		Notes: "paper: SPU 0.0141, ST 0.0112, counters 0.0208, total 0.0461 mm^2 @40nm; 2.7mW",
	}}, nil
}

// finishSkew is the spread between the first and last core to finish, as a
// fraction of the makespan: 0 when every core finishes together.
func finishSkew(rep Report) float64 {
	lo, hi := rep.Makespan, Time(0)
	for _, c := range rep.PerCore {
		lo, hi = min(lo, c.Finish), max(hi, c.Finish)
	}
	return float64(hi-lo) / float64(rep.Makespan)
}

func buildAblationFairness(scale float64) ([]*Figure, error) {
	rounds := max(int(200*scale), 20)
	f := &Figure{ID: "ablation-fairness",
		Title:   "Contended lock: makespan and max per-core finish skew vs fairness threshold",
		Columns: []string{"threshold", "makespan", "Mops/s", "skew"},
		Notes: "threshold 0 disables transfers (max batching); small thresholds trade throughput " +
			"for fairness, as §4.4.2 predicts",
	}
	for _, th := range []int{0, 1, 2, 4, 8, 16, 64} {
		pinned := seq(0, 60)
		rep, err := runPinnedLock(Config{Scheme: SchemeSynCron, FairnessThreshold: th}, pinned, rounds, 60)
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, []string{fmt.Sprint(th), rep.Makespan.String(),
			fmtF2(mopsPerSec(rounds*len(pinned), rep.Makespan)), fmtF2(finishSkew(rep))})
	}
	return []*Figure{f}, nil
}

func buildAblationSEService(scale float64) ([]*Figure, error) {
	var b paperBatch
	f := &Figure{ID: "ablation-seservice",
		Title:   "ts.air speedup over Central vs SE service cycles",
		Columns: []string{"SE cycles", "syncron/central"},
		Notes: "the paper's conclusion is robust while the SE stays cheaper than a software handler " +
			"(~60 instructions + cache accesses)",
	}
	p := WorkloadParams{Scale: scale}
	central := b.add("ts.air", Config{Scheme: SchemeCentral}, p)
	for _, cycles := range []int64{4, 8, 12, 24, 48} {
		r := b.add("ts.air", Config{Scheme: SchemeSynCron, SEServiceCycles: cycles}, p)
		b.row(f, func() []string { return append([]string{fmt.Sprint(cycles)}, speedups(central, r)...) })
	}
	return b.figures(f)
}
