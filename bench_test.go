// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each Benchmark<Id> runs the corresponding experiment from internal/exp at
// a bench-friendly scale and reports headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// exercises the full harness. For full-size runs and printed tables use
// cmd/syncron-bench (e.g. `go run ./cmd/syncron-bench -exp fig12 -scale 1`).
package syncron_test

import (
	"strconv"
	"strings"
	"testing"

	"syncron"
	"syncron/internal/exp"
)

// benchScale keeps the full suite in the minutes range.
const benchScale = 0.05

// runExp runs one registered experiment and returns its tables.
func runExp(b *testing.B, id string, scale float64) []*exp.Table {
	b.Helper()
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var tables []*exp.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(scale)
	}
	if len(tables) == 0 {
		b.Fatalf("experiment %q produced no tables", id)
	}
	return tables
}

// lastFloat extracts the last numeric cell of the last row (typically the
// average or final data point), for b.ReportMetric.
func lastFloat(t *exp.Table) float64 {
	for r := len(t.Rows) - 1; r >= 0; r-- {
		row := t.Rows[r]
		for c := len(row) - 1; c >= 0; c-- {
			cell := strings.TrimSuffix(row[c], "%")
			cell = strings.TrimSuffix(cell, "x")
			if v, err := strconv.ParseFloat(cell, 64); err == nil {
				return v
			}
		}
	}
	return 0
}

func BenchmarkTable1(b *testing.B) {
	ts := runExp(b, "table1", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "Mops/s_last")
}

func BenchmarkFig2(b *testing.B) {
	ts := runExp(b, "fig2", benchScale)
	b.ReportMetric(lastFloat(ts[1]), "slowdown_4units")
}

func BenchmarkFig10(b *testing.B) {
	ts := runExp(b, "fig10", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "lock_speedup_last")
}

func BenchmarkFig11(b *testing.B) {
	ts := runExp(b, "fig11", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "stack_opsms_last")
}

func BenchmarkFig12(b *testing.B) {
	ts := runExp(b, "fig12", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "avg_ideal_speedup")
}

func BenchmarkFig13(b *testing.B) {
	ts := runExp(b, "fig13", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "avg_4unit_speedup")
}

func BenchmarkFig14(b *testing.B) {
	ts := runExp(b, "fig14", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "last_energy_ratio")
}

func BenchmarkFig15(b *testing.B) {
	ts := runExp(b, "fig15", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "last_traffic_ratio")
}

func BenchmarkFig16(b *testing.B) {
	ts := runExp(b, "fig16", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "stack_opsms_last")
}

func BenchmarkFig17(b *testing.B) {
	ts := runExp(b, "fig17", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "central_slowdown_500ns")
}

func BenchmarkFig18(b *testing.B) {
	ts := runExp(b, "fig18", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "last_speedup")
}

func BenchmarkFig19(b *testing.B) {
	ts := runExp(b, "fig19", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "last_maxST_pct")
}

func BenchmarkFig20(b *testing.B) {
	ts := runExp(b, "fig20", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "avg_syncron_vs_flat")
}

func BenchmarkFig21(b *testing.B) {
	ts := runExp(b, "fig21", benchScale)
	b.ReportMetric(lastFloat(ts[1]), "queue_speedup_last")
}

func BenchmarkFig22(b *testing.B) {
	ts := runExp(b, "fig22", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "last_overflow_pct")
}

func BenchmarkFig23(b *testing.B) {
	ts := runExp(b, "fig23", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "last_overflow_pct")
}

func BenchmarkTable7(b *testing.B) {
	ts := runExp(b, "table7", benchScale)
	b.ReportMetric(lastFloat(ts[0]), "tspow_avg_occupancy_pct")
}

func BenchmarkTable8(b *testing.B) {
	ts := runExp(b, "table8", 1)
	b.ReportMetric(lastFloat(ts[0]), "cortexA7_power_mW")
}

// benchSweep measures the public Sweep API end to end (expansion, the worker
// pool, per-run seeding) on a 2-scheme x 2-workload grid.
func benchSweep(b *testing.B, workers int) {
	sw := syncron.Sweep{
		Workloads: []string{"stack", "lock"},
		Schemes:   []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral},
		Params:    syncron.WorkloadParams{Scale: benchScale, OpsPerCore: 8, Rounds: 10},
		Workers:   workers,
	}
	var results []syncron.RunResult
	for i := 0; i < b.N; i++ {
		results = sw.Run()
	}
	for _, r := range results {
		if r.Err != "" {
			b.Fatalf("%s under %s failed: %s", r.Spec.Workload, r.Spec.Config.Scheme, r.Err)
		}
	}
	b.ReportMetric(float64(len(results)), "runs")
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkPerfGrid replays a scaled-down version of the canonical
// `figures --quick` grids end to end — the macro benchmark the CI perf gate
// compares across refs (`syncron-bench -perf` is the full-size version that
// seeds BENCH.json). Workers is pinned to 1 so the measurement is about
// simulator throughput, not the runner's core count.
func BenchmarkPerfGrid(b *testing.B) {
	sweeps := syncron.FigureSweeps(syncron.FigureOptions{Quick: true, Scale: 0.02, Workers: 1})
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events = 0
		for _, sw := range sweeps {
			for _, r := range sw.Run() {
				if r.Err != "" {
					b.Fatalf("%s under %s failed: %s", r.Spec.Workload, r.Spec.Config.Scheme, r.Err)
				}
				events += r.Events
			}
		}
	}
	b.ReportMetric(float64(events), "events/op")
}
