package syncron

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"syncron/internal/network"
)

// This file is the analysis layer: it ingests []RunResult (usually straight
// from Sweep.Run) and computes the paper's evaluation views — speedup
// normalized to a baseline scheme with geomean aggregation per workload
// family (Figures 10-12), scalability over system size (Figure 13), energy
// and data-movement breakdowns (Figures 14-15), and the Synchronization
// Table occupancy/overflow ablations (Figure 22, Table 7). figures.go
// renders these views as Markdown/CSV artifacts; cmd/syncron-sim exposes
// them as the `figures` subcommand.

// Geomean returns the geometric mean of the positive values in xs; zero,
// negative, and non-finite values are ignored. It returns 0 when no value
// qualifies.
func Geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 1) && !math.IsNaN(x) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// byWorkload compares two view rows by workload family (Kinds order), then
// workload name: the leading row order of every view.
func byWorkload(ka WorkloadKind, wa string, kb WorkloadKind, wb string) int {
	return cmp.Or(cmp.Compare(kindOrder(ka), kindOrder(kb)), strings.Compare(wa, wb))
}

// SpeedupRow is one grid point of a SpeedupTable: a workload (at one
// configuration) with per-scheme speedup and throughput.
type SpeedupRow struct {
	// Workload is the registry name.
	Workload string
	// Kind is the workload's family (geomeans aggregate over it).
	Kind WorkloadKind
	// Label is Workload plus a config suffix (e.g. " u=2") when the result
	// set holds the same workload at several grid points.
	Label string
	// Speedup maps scheme → baseline makespan / scheme makespan (the
	// baseline scheme itself is exactly 1).
	Speedup map[Scheme]float64
	// Throughput maps scheme → operations per millisecond.
	Throughput map[Scheme]float64
}

// SpeedupTable is the paper's headline comparison: per-workload speedup over
// a baseline scheme, with geomean rows per workload family and overall.
type SpeedupTable struct {
	// Baseline is the scheme every speedup is normalized to.
	Baseline Scheme
	// Schemes are the compared schemes in first-seen result order.
	Schemes []Scheme
	// Rows are sorted by kind (Kinds order), then workload name, then label.
	Rows []SpeedupRow
	// KindGeomean aggregates Rows per workload family.
	KindGeomean map[WorkloadKind]map[Scheme]float64
	// OverallGeomean aggregates all Rows.
	OverallGeomean map[Scheme]float64
}

// Kinds returns the families present in the table, in Kinds order.
func (t *SpeedupTable) Kinds() []WorkloadKind {
	var kinds []WorkloadKind
	for _, row := range t.Rows {
		if !slices.Contains(kinds, row.Kind) {
			kinds = append(kinds, row.Kind)
		}
	}
	slices.SortFunc(kinds, func(a, b WorkloadKind) int { return cmp.Compare(kindOrder(a), kindOrder(b)) })
	return kinds
}

// SpeedupVsBaseline joins every successful run against the baseline-scheme
// run of the same grid point and computes per-workload speedups plus geomean
// aggregates per workload family. Failed runs are ignored; a missing
// baseline run is an error.
func SpeedupVsBaseline(results []RunResult, baseline Scheme) (*SpeedupTable, error) {
	rs := ResultSet(results)
	pairs, err := rs.JoinBaseline(baseline)
	if err != nil {
		return nil, err
	}
	label := gridLabeler(rs.Ok())
	t := &SpeedupTable{
		Baseline:       baseline,
		Schemes:        rs.Ok().Schemes(),
		KindGeomean:    map[WorkloadKind]map[Scheme]float64{},
		OverallGeomean: map[Scheme]float64{},
	}
	row := map[string]int{} // grid point, scheme stripped → index in t.Rows
	for _, p := range pairs {
		key := gridKey(p.Run, func(c *Config) { c.Scheme = "" })
		i, ok := row[key]
		if !ok {
			i = len(t.Rows)
			row[key] = i
			t.Rows = append(t.Rows, SpeedupRow{
				Workload:   p.Run.Spec.Workload,
				Kind:       p.Run.Kind,
				Label:      label(p.Run),
				Speedup:    map[Scheme]float64{},
				Throughput: map[Scheme]float64{},
			})
		}
		scheme := p.Run.Spec.Config.Scheme
		if p.Run.Makespan > 0 {
			t.Rows[i].Speedup[scheme] = float64(p.Baseline.Makespan) / float64(p.Run.Makespan)
		}
		t.Rows[i].Throughput[scheme] = p.Run.OpsPerMs
	}
	slices.SortStableFunc(t.Rows, func(a, b SpeedupRow) int {
		return cmp.Or(byWorkload(a.Kind, a.Workload, b.Kind, b.Workload), strings.Compare(a.Label, b.Label))
	})
	for _, scheme := range t.Schemes {
		byKind := map[WorkloadKind][]float64{}
		var all []float64
		for _, row := range t.Rows {
			if sp, ok := row.Speedup[scheme]; ok {
				byKind[row.Kind] = append(byKind[row.Kind], sp)
				all = append(all, sp)
			}
		}
		for kind, sps := range byKind {
			if t.KindGeomean[kind] == nil {
				t.KindGeomean[kind] = map[Scheme]float64{}
			}
			t.KindGeomean[kind][scheme] = Geomean(sps)
		}
		t.OverallGeomean[scheme] = Geomean(all)
	}
	return t, nil
}

// gridAxes label the config axes gridLabeler can name, in label order:
// units, cores per unit, memory, memory model, topology, link latency and ST
// entries.
var gridAxes = []func(Config) string{
	func(c Config) string { return fmt.Sprintf(" u=%d", c.Units) },
	func(c Config) string { return fmt.Sprintf(" c=%d", c.CoresPerUnit) },
	func(c Config) string { return " " + c.Memory.String() },
	func(c Config) string { return " " + string(c.MemModel) },
	func(c Config) string { return " " + string(c.Topology) },
	func(c Config) string { return fmt.Sprintf(" link=%v", c.LinkLatency) },
	func(c Config) string { return fmt.Sprintf(" st=%d", c.STEntries) },
}

// gridLabeler returns a labeling function that appends the label of every
// gridAxes axis that varies across rs to the workload name, so a workload
// swept at several grid points yields distinguishable rows.
func gridLabeler(rs ResultSet) func(RunResult) string {
	var varying []func(Config) string
	for _, axis := range gridAxes {
		seen := map[string]bool{}
		for _, r := range rs {
			seen[axis(r.Spec.Config)] = true
		}
		if len(seen) > 1 {
			varying = append(varying, axis)
		}
	}
	return func(r RunResult) string {
		label := r.Spec.Workload
		for _, axis := range varying {
			label += axis(r.Spec.Config)
		}
		return label
	}
}

// ScalabilityPoint is one system size on a scalability curve.
type ScalabilityPoint struct {
	// Units and Cores describe the system size (Cores = Units * CoresPerUnit).
	Units, Cores int
	// Makespan is the run's simulated duration.
	Makespan Time
	// Speedup is normalized to the smallest system size of the same curve.
	Speedup float64
}

// ScalabilityCurve is one workload's self-relative scaling under one scheme
// (Figure 13).
type ScalabilityCurve struct {
	Workload string
	Kind     WorkloadKind
	Scheme   Scheme
	// Points are sorted by total core count.
	Points []ScalabilityPoint
}

// Scalability builds scaling curves from the runs of one scheme: one curve
// per workload and grid point, where runs differing only in Units and
// CoresPerUnit form a curve, and each curve normalizes every system size to
// its smallest one. Curves are sorted by kind, then workload name, then
// first-seen order. Failed runs are ignored; a curve needs at least two sizes,
// and curves with fewer are dropped.
func Scalability(results []RunResult, scheme Scheme) ([]ScalabilityCurve, error) {
	rs := ResultSet(results).Ok().Filter(func(r RunResult) bool {
		return r.Spec.Config.Scheme == scheme
	})
	if len(rs) == 0 {
		return nil, fmt.Errorf("syncron: no successful %q runs to build scalability curves from", scheme)
	}
	var out []ScalabilityCurve
	for _, runs := range curves(rs, func(c *Config) { c.Units, c.CoresPerUnit = 0, 0 }) {
		if len(runs) < 2 {
			continue
		}
		slices.SortStableFunc(runs, func(a, b RunResult) int {
			return cmp.Compare(a.Spec.Config.Units*a.Spec.Config.CoresPerUnit,
				b.Spec.Config.Units*b.Spec.Config.CoresPerUnit)
		})
		curve := ScalabilityCurve{Workload: runs[0].Spec.Workload, Kind: runs[0].Kind, Scheme: scheme}
		base := runs[0].Makespan
		for _, r := range runs {
			cfg := r.Spec.Config
			pt := ScalabilityPoint{Units: cfg.Units, Cores: cfg.Units * cfg.CoresPerUnit,
				Makespan: r.Makespan}
			if r.Makespan > 0 {
				pt.Speedup = float64(base) / float64(r.Makespan)
			}
			curve.Points = append(curve.Points, pt)
		}
		out = append(out, curve)
	}
	slices.SortStableFunc(out, func(a, b ScalabilityCurve) int {
		return byWorkload(a.Kind, a.Workload, b.Kind, b.Workload)
	})
	return out, nil
}

// EnergyRow is one (workload, scheme) cell of the energy view (Figure 14):
// the scheme's cache/network/memory energy as fractions of the baseline
// scheme's total energy on the same grid point, so the baseline's Total is
// exactly 1 and schemes are directly comparable.
type EnergyRow struct {
	Workload string
	Kind     WorkloadKind
	Label    string
	Scheme   Scheme

	Cache, Network, Memory, Total float64
}

// EnergyBreakdown computes the Figure-14 energy view: every run's energy
// split normalized to the baseline scheme's total on the same grid point.
// Rows are sorted by kind, workload, label, then scheme in first-seen order.
func EnergyBreakdown(results []RunResult, baseline Scheme) ([]EnergyRow, error) {
	pairs, err := ResultSet(results).JoinBaseline(baseline)
	if err != nil {
		return nil, err
	}
	label := gridLabeler(ResultSet(results).Ok())
	var rows []EnergyRow
	for _, p := range pairs {
		total := p.Baseline.TotalEnergyPJ()
		if total == 0 {
			return nil, fmt.Errorf("syncron: baseline %s run of %s reports zero energy",
				baseline, p.Run.Spec.Workload)
		}
		rows = append(rows, EnergyRow{
			Workload: p.Run.Spec.Workload,
			Kind:     p.Run.Kind,
			Label:    label(p.Run),
			Scheme:   p.Run.Spec.Config.Scheme,
			Cache:    p.Run.CacheEnergyPJ / total,
			Network:  p.Run.NetworkEnergyPJ / total,
			Memory:   p.Run.MemoryEnergyPJ / total,
			Total:    p.Run.TotalEnergyPJ() / total,
		})
	}
	sortBreakdown(rows, ResultSet(results).Ok().Schemes(),
		func(r EnergyRow) (WorkloadKind, string, string, Scheme) {
			return r.Kind, r.Workload, r.Label, r.Scheme
		})
	return rows, nil
}

// TrafficRow is one (workload, scheme) cell of the data-movement view
// (Figure 15): bytes moved inside and across NDP units as fractions of the
// baseline scheme's total bytes on the same grid point.
type TrafficRow struct {
	Workload string
	Kind     WorkloadKind
	Label    string
	Scheme   Scheme

	Inside, Across, Total float64
}

// TrafficBreakdown computes the Figure-15 data-movement view: every run's
// inside/across-unit bytes normalized to the baseline scheme's total on the
// same grid point. Rows are sorted like EnergyBreakdown's.
func TrafficBreakdown(results []RunResult, baseline Scheme) ([]TrafficRow, error) {
	pairs, err := ResultSet(results).JoinBaseline(baseline)
	if err != nil {
		return nil, err
	}
	label := gridLabeler(ResultSet(results).Ok())
	var rows []TrafficRow
	for _, p := range pairs {
		total := float64(p.Baseline.BytesInsideUnits + p.Baseline.BytesAcrossUnits)
		if total == 0 {
			return nil, fmt.Errorf("syncron: baseline %s run of %s reports zero data movement",
				baseline, p.Run.Spec.Workload)
		}
		rows = append(rows, TrafficRow{
			Workload: p.Run.Spec.Workload,
			Kind:     p.Run.Kind,
			Label:    label(p.Run),
			Scheme:   p.Run.Spec.Config.Scheme,
			Inside:   float64(p.Run.BytesInsideUnits) / total,
			Across:   float64(p.Run.BytesAcrossUnits) / total,
			Total:    float64(p.Run.BytesInsideUnits+p.Run.BytesAcrossUnits) / total,
		})
	}
	sortBreakdown(rows, ResultSet(results).Ok().Schemes(),
		func(r TrafficRow) (WorkloadKind, string, string, Scheme) {
			return r.Kind, r.Workload, r.Label, r.Scheme
		})
	return rows, nil
}

// sortBreakdown orders breakdown rows by kind, workload, label, then scheme
// in the order schemes lists them.
func sortBreakdown[T any](rows []T, schemes []Scheme, key func(T) (WorkloadKind, string, string, Scheme)) {
	slices.SortStableFunc(rows, func(a, b T) int {
		ka, wa, la, sa := key(a)
		kb, wb, lb, sb := key(b)
		return cmp.Or(byWorkload(ka, wa, kb, wb), strings.Compare(la, lb),
			cmp.Compare(slices.Index(schemes, sa), slices.Index(schemes, sb)))
	})
}

// TopologyRow is one (workload, scheme, topology) cell of the interconnect
// sensitivity view: how a topology's hop count and contention change
// makespan, network energy, and link traffic relative to the baseline
// topology on the same workload, scheme, and grid point.
type TopologyRow struct {
	Workload string
	Kind     WorkloadKind
	Scheme   Scheme
	Topology Topology
	// Diameter is the topology's maximum route length at the run's unit count.
	Diameter int
	// AvgRouteLinks is the measured mean links per cross-unit message.
	AvgRouteLinks float64
	// OpsPerMs is the run's absolute throughput.
	OpsPerMs float64
	// SlowdownVsBase is makespan / the baseline topology's makespan (the
	// baseline topology itself is exactly 1).
	SlowdownVsBase float64
	// NetworkEnergyX and LinkBytesX are the run's network energy and
	// across-unit link bytes relative to the baseline topology's.
	NetworkEnergyX, LinkBytesX float64
}

// TopologySensitivity builds the interconnect sensitivity view from runs
// that sweep the Topology axis: every successful run is joined against the
// run of the same workload, scheme, and grid point under the baseline
// topology (default TopoAllToAll when base is empty). Rows are sorted by
// kind, workload, scheme, then topology in Topologies order.
func TopologySensitivity(results []RunResult, base Topology) ([]TopologyRow, error) {
	if base == "" {
		base = TopoAllToAll
	}
	pairs, err := joinOn(results, base, func(c *Config) *Topology { return &c.Topology })
	if err != nil {
		return nil, err
	}
	rows := make([]TopologyRow, 0, len(pairs))
	for _, p := range pairs {
		r, b := p.Run, p.Baseline
		row := TopologyRow{
			Workload:      r.Spec.Workload,
			Kind:          r.Kind,
			Scheme:        r.Spec.Config.Scheme,
			Topology:      r.Spec.Config.Topology,
			AvgRouteLinks: r.AvgRouteLinks,
			OpsPerMs:      r.OpsPerMs,
		}
		if topo, err := network.Build(r.Spec.Config.Topology, r.Spec.Config.Units); err == nil {
			row.Diameter = topo.Diameter()
		}
		if b.Makespan > 0 {
			row.SlowdownVsBase = float64(r.Makespan) / float64(b.Makespan)
		}
		if b.NetworkEnergyPJ > 0 {
			row.NetworkEnergyX = r.NetworkEnergyPJ / b.NetworkEnergyPJ
		}
		if b.BytesAcrossUnits > 0 {
			row.LinkBytesX = float64(r.BytesAcrossUnits) / float64(b.BytesAcrossUnits)
		}
		rows = append(rows, row)
	}
	topos := Topologies()
	slices.SortStableFunc(rows, func(a, b TopologyRow) int {
		return cmp.Or(byWorkload(a.Kind, a.Workload, b.Kind, b.Workload), cmp.Compare(a.Scheme, b.Scheme),
			cmp.Compare(slices.Index(topos, a.Topology), slices.Index(topos, b.Topology)))
	})
	return rows, nil
}

// MemRow is one (workload, scheme, memory model) cell of the DRAM-model
// sensitivity view: how the bank/row-buffer timing model shifts makespan and
// memory energy relative to the flat model on the same workload, scheme, and
// grid point, together with the row locality the bank model measured.
type MemRow struct {
	Workload string
	Kind     WorkloadKind
	Scheme   Scheme
	MemModel MemModel
	// RowHitRate is the run's fraction of open-row DRAM hits (always 0 under
	// the flat model).
	RowHitRate float64
	// OpsPerMs is the run's absolute throughput.
	OpsPerMs float64
	// SlowdownVsBase is makespan / the baseline model's makespan (the
	// baseline model itself is exactly 1).
	SlowdownVsBase float64
	// MemEnergyX is the run's DRAM energy relative to the baseline model's.
	MemEnergyX float64
}

// MemSensitivity builds the DRAM-model sensitivity view from runs that sweep
// the MemModel axis: every successful run is joined against the run of the
// same workload, scheme, and grid point under the baseline model (default
// MemModelFlat when base is empty). Rows are sorted by kind, workload,
// scheme, then model in MemModels order.
func MemSensitivity(results []RunResult, base MemModel) ([]MemRow, error) {
	if base == "" {
		base = MemModelFlat
	}
	pairs, err := joinOn(results, base, func(c *Config) *MemModel { return &c.MemModel })
	if err != nil {
		return nil, err
	}
	rows := make([]MemRow, 0, len(pairs))
	for _, p := range pairs {
		r, b := p.Run, p.Baseline
		row := MemRow{
			Workload:   r.Spec.Workload,
			Kind:       r.Kind,
			Scheme:     r.Spec.Config.Scheme,
			MemModel:   r.Spec.Config.MemModel,
			RowHitRate: r.RowHitRate,
			OpsPerMs:   r.OpsPerMs,
		}
		if b.Makespan > 0 {
			row.SlowdownVsBase = float64(r.Makespan) / float64(b.Makespan)
		}
		if b.MemoryEnergyPJ > 0 {
			row.MemEnergyX = r.MemoryEnergyPJ / b.MemoryEnergyPJ
		}
		rows = append(rows, row)
	}
	models := MemModels()
	slices.SortStableFunc(rows, func(a, b MemRow) int {
		return cmp.Or(byWorkload(a.Kind, a.Workload, b.Kind, b.Workload), cmp.Compare(a.Scheme, b.Scheme),
			cmp.Compare(slices.Index(models, a.MemModel), slices.Index(models, b.MemModel)))
	})
	return rows, nil
}

// OccupancyRow summarizes one (workload, scheme, ST size) run of a SynCron
// scheme for the Synchronization Table ablation (Figure 22, Table 7).
type OccupancyRow struct {
	Workload string
	Kind     WorkloadKind
	// Scheme is the SynCron variant the run used (hierarchical or flat);
	// slowdowns are normalized within one curve, which never mixes schemes.
	Scheme Scheme
	// STEntries is the Synchronization Table size of the run.
	STEntries int
	// OpsPerMs is the run's throughput.
	OpsPerMs float64
	// SlowdownVsLargest is makespan / the same curve's makespan at its
	// largest swept ST size (so the largest size is exactly 1).
	SlowdownVsLargest float64
	// MaxOccupancy and MeanOccupancy are ST occupancy fractions in [0, 1].
	MaxOccupancy, MeanOccupancy float64
	// Overflowed is the fraction of requests that overflowed the ST.
	Overflowed float64
}

// STAblation builds the ST-size sensitivity view from runs of the SynCron
// schemes: per curve (the runs of one workload, scheme and grid point that
// differ only in STEntries), every swept ST size with its slowdown relative
// to the curve's largest size and its occupancy/overflow statistics. Rows are
// sorted by kind, workload, scheme, then ST size descending (the paper's
// presentation order). Runs of non-SynCron schemes and failed runs are
// ignored.
func STAblation(results []RunResult) ([]OccupancyRow, error) {
	rs := ResultSet(results).Ok().Filter(func(r RunResult) bool {
		s := r.Spec.Config.Scheme
		return s == SchemeSynCron || s == SchemeSynCronFlat
	})
	if len(rs) == 0 {
		return nil, fmt.Errorf("syncron: no successful SynCron runs to build the ST ablation from")
	}
	var rows []OccupancyRow
	for _, runs := range curves(rs, func(c *Config) { c.STEntries = 0 }) {
		slices.SortStableFunc(runs, func(a, b RunResult) int {
			return cmp.Compare(b.Spec.Config.STEntries, a.Spec.Config.STEntries)
		})
		base := runs[0].Makespan // largest swept ST size of this curve
		for _, r := range runs {
			row := OccupancyRow{
				Workload:      r.Spec.Workload,
				Kind:          r.Kind,
				Scheme:        r.Spec.Config.Scheme,
				STEntries:     r.Spec.Config.STEntries,
				OpsPerMs:      r.OpsPerMs,
				MaxOccupancy:  r.STOccupancyMax,
				MeanOccupancy: r.STOccupancyMean,
				Overflowed:    r.OverflowedFraction,
			}
			if base > 0 {
				row.SlowdownVsLargest = float64(r.Makespan) / float64(base)
			}
			rows = append(rows, row)
		}
	}
	slices.SortStableFunc(rows, func(a, b OccupancyRow) int {
		return cmp.Or(byWorkload(a.Kind, a.Workload, b.Kind, b.Workload), cmp.Compare(a.Scheme, b.Scheme),
			cmp.Compare(b.STEntries, a.STEntries))
	})
	return rows, nil
}
