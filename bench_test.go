// Benchmarks of the public Sweep API and of the canonical figure grids.
// The perf-gate CI job compares BenchmarkPerfGrid across refs; the
// repository's end-to-end benchmark is perfbench/ (see BENCHMARK.json).
package syncron_test

import (
	"testing"

	"syncron"
)

// benchScale keeps each benchmark iteration well under a second.
const benchScale = 0.05

// benchSweep measures the public Sweep API end to end (expansion, the worker
// pool, per-run seeding) on a 2-scheme x 2-workload grid.
func benchSweep(b *testing.B, workers int) {
	sw := syncron.Sweep{
		Workloads:  []string{"stack", "lock"},
		Schemes:    []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeCentral},
		Params:     syncron.WorkloadParams{Scale: benchScale, OpsPerCore: 8, Rounds: 10},
		SpecRunner: syncron.SpecRunner{Workers: workers},
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
// compares across refs (perfbench's figures-quick workload is the full-size
// version). Workers is pinned to 1 so the measurement is about simulator
// throughput, not the runner's core count.
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

// BenchmarkNew measures building the default 60-core machine: caches,
// memories, network and sync backend, the per-run set-up before a workload
// is placed.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		syncron.New(syncron.Config{})
	}
}
