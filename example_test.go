package syncron_test

import (
	"fmt"

	"syncron"
)

// ExampleNew builds a small SynCron system, runs a contended counter on
// every core, and checks mutual exclusion held.
func ExampleNew() {
	sys := syncron.New(syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 2})
	lock := sys.AllocLocal(0, 64)
	counter := 0
	sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
		for i := 0; i < 10; i++ {
			ctx.Lock(lock)
			counter++
			ctx.Unlock(lock)
			ctx.Compute(100)
		}
	})
	rep := sys.Run()
	fmt.Println(counter, rep.Makespan > 0)
	// Output: 40 true
}

// ExampleExecute runs one registered workload on one configuration and
// reports the structured result.
func ExampleExecute() {
	res := syncron.Execute(syncron.RunSpec{
		Workload: "stack",
		Config:   syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 2},
		Params:   syncron.WorkloadParams{OpsPerCore: 5},
	})
	fmt.Println(res.Err == "", res.Ops)
	// Output: true 20
}

// ExampleSweep expands a (workload x scheme) grid and runs it on a worker
// pool with deterministic per-run seeds.
func ExampleSweep() {
	results := syncron.Sweep{
		Workloads: []string{"lock", "stack"},
		Schemes:   []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeSynCron},
		Base:      syncron.Config{Units: 2, CoresPerUnit: 2},
		Params:    syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 5},
	}.Run()
	fmt.Println(len(results), len(syncron.ResultSet(results).Failed()))
	// Output: 4 0
}

// ExampleSpeedupVsBaseline turns sweep results into the paper's headline
// view: per-workload speedup normalized to a baseline scheme.
func ExampleSpeedupVsBaseline() {
	results := syncron.Sweep{
		Workloads: []string{"lock", "stack"},
		Schemes:   []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeSynCron},
		Base:      syncron.Config{Units: 2, CoresPerUnit: 2},
		Params:    syncron.WorkloadParams{Scale: 0.05, OpsPerCore: 5},
	}.Run()
	table, err := syncron.SpeedupVsBaseline(results, syncron.SchemeCentral)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, row := range table.Rows {
		// The baseline's speedup over itself is exactly 1 by construction;
		// SynCron must not lose to the message-passing baseline.
		fmt.Println(row.Workload,
			row.Speedup[syncron.SchemeCentral],
			row.Speedup[syncron.SchemeSynCron] >= 1)
	}
	// Output:
	// lock 1 true
	// stack 1 true
}

// ExampleParseScheme resolves scheme names, including the "flat" alias.
func ExampleParseScheme() {
	s, _ := syncron.ParseScheme("flat")
	fmt.Println(s)
	// Output: syncron-flat
}

// ExampleWorkloadNamesOfKind lists one family of the workload registry.
func ExampleWorkloadNamesOfKind() {
	fmt.Println(syncron.WorkloadNamesOfKind(syncron.KindPrimitive))
	// Output: [barrier condvar lock semaphore]
}

// ExampleLookupInfo shows the registry metadata the analysis layer
// aggregates by.
func ExampleLookupInfo() {
	info, ok := syncron.LookupInfo("pr.wk")
	fmt.Println(ok, info.Kind, info.Family)
	// Output: true graph application pr
}

// ExampleConfig_topology runs the same contended workload on two
// interconnect topologies: the paper's all-to-all wiring and a star, where
// every cross-unit message takes two links through a shared switch.
func ExampleConfig_topology() {
	makespan := func(topo syncron.Topology) syncron.Time {
		sys := syncron.New(syncron.Config{Topology: topo, Units: 4, CoresPerUnit: 2})
		lock := sys.AllocLocal(0, 64)
		counter := 0
		sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
			for i := 0; i < 20; i++ {
				ctx.Lock(lock)
				counter++
				ctx.Unlock(lock)
			}
		})
		return sys.Run().Makespan
	}
	direct := makespan(syncron.TopoAllToAll)
	hub := makespan(syncron.TopoStar)
	fmt.Println(direct > 0, hub > direct)
	// Output: true true
}
