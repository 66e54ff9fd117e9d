package syncron_test

import (
	"fmt"
	"math"
	"testing"

	"syncron"
	"syncron/internal/arch"
	"syncron/internal/cache"
	"syncron/internal/core"
	"syncron/internal/network"
	"syncron/internal/sim"
)

// Under Ideal a sync op costs nothing, so each core completes one op per
// interval of compute and the machine's throughput is exactly the compute
// bound: cores × CoreMHz × 1000 / interval ops/ms. The identity is checked
// for every primitive at several unit counts, core counts and intervals.
func TestIdealIsComputeBound(t *testing.T) {
	points := []struct {
		units, cores int
		interval     int64
	}{
		{4, 60, 200}, // 750,000 ops/ms
		{2, 30, 200}, // 375,000
		{4, 60, 100}, // 1,500,000
		{4, 8, 50},   // 400,000
	}
	for _, p := range points {
		for _, w := range []string{"lock", "barrier", "semaphore", "condvar"} {
			t.Run(fmt.Sprintf("%s/u%d-c%d-i%d", w, p.units, p.cores, p.interval), func(t *testing.T) {
				cfg := syncron.Config{Scheme: syncron.SchemeIdeal, Units: p.units, CoresPerUnit: p.cores / p.units}
				res := syncron.Execute(syncron.RunSpec{Workload: w, Config: cfg,
					Params: syncron.WorkloadParams{Scale: 0.05, Interval: p.interval}})
				if res.Err != "" {
					t.Fatal(res.Err)
				}
				// The identity in integers, with the makespan in picoseconds:
				// ops × (ps per ms) × interval == cores × MHz × 1000 × makespan.
				// OpsPerMs is the same ratio in floating point.
				mhz := int64(arch.CoreMHz)
				lhs := int64(res.Ops) * int64(syncron.Millisecond) * p.interval
				rhs := int64(p.cores) * mhz * 1000 * int64(res.Makespan)
				if lhs != rhs || res.Ops == 0 {
					t.Fatalf("%d ops in %v: %v ops/ms, want the compute bound %d",
						res.Ops, res.Makespan, res.OpsPerMs, int64(p.cores)*mhz*1000/p.interval)
				}
				if want := float64(int64(p.cores)*mhz*1000) / float64(p.interval); math.Abs(res.OpsPerMs-want) > 1e-9*want {
					t.Fatalf("OpsPerMs %v, want %v", res.OpsPerMs, want)
				}
			})
		}
	}
}

// On one core of one unit a SynCron lock round has no contention, so its
// time is a closed form in the model's constants: the acquire request
// crosses the crossbar to the local SE, the SE serves it, the grant crosses
// back, the release takes one issue cycle, and the core computes its
// interval. syncron and syncron-flat coincide here, since one unit has one
// SE and nothing to aggregate.
func TestSynCronLockRoundClosedForm(t *testing.T) {
	const interval = 200
	coreClk, seClk := sim.NewClock(arch.CoreMHz), sim.NewClock(arch.SEMHz)
	// One crossbar leg: ceil(bytes / FlitBytes) flits plus arbiter and hops.
	xbar := func(bytes int64) sim.Time {
		flits := (bytes + network.FlitBytes - 1) / network.FlitBytes
		return coreClk.Cycles(flits + network.ArbiterCycles + network.HopCycles*network.Hops)
	}
	round := xbar(arch.SyncReqBytes) + seClk.Cycles(core.DefaultSEServiceCycles) +
		xbar(arch.SyncRespBytes) + coreClk.Cycles(core.AsyncIssueCycles) + coreClk.Cycles(interval)
	for _, scheme := range []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeSynCronFlat} {
		for _, rounds := range []int{1, 10, 100} {
			res := syncron.Execute(syncron.RunSpec{Workload: "lock",
				Config: syncron.Config{Scheme: scheme, Units: 1, CoresPerUnit: 1},
				Params: syncron.WorkloadParams{Interval: interval, Rounds: rounds}})
			if res.Err != "" {
				t.Fatal(res.Err)
			}
			if want := sim.Time(rounds) * round; res.Makespan != want {
				t.Errorf("%s, %d rounds: makespan %v, want %d x %v = %v",
					scheme, rounds, res.Makespan, rounds, round, want)
			}
		}
	}
}

// On one core of one unit a Central lock round is a closed form too, once
// the server's L1 holds the lock's state: the acquire request crosses the
// crossbar to the server core, which runs its software handler and two
// accesses to the variable's state, both L1 hits, the grant crosses back,
// the release takes one issue cycle (the server handles it while the core
// computes), and the core computes its interval. The first rounds also pay
// the server's cold misses, so the steady-state round is measured between
// 10 and 100 rounds.
func TestCentralLockRoundClosedForm(t *testing.T) {
	const interval = 200
	coreClk := sim.NewClock(arch.CoreMHz)
	// One crossbar leg: ceil(bytes / FlitBytes) flits plus arbiter and hops.
	xbar := func(bytes int64) sim.Time {
		flits := (bytes + network.FlitBytes - 1) / network.FlitBytes
		return coreClk.Cycles(flits + network.ArbiterCycles + network.HopCycles*network.Hops)
	}
	server := coreClk.Cycles(core.ServerHandlerInstrs + core.ServerVarAccesses*cache.DefaultConfig().HitCycles)
	round := xbar(arch.SyncReqBytes) + server + xbar(arch.SyncRespBytes) +
		coreClk.Cycles(core.AsyncIssueCycles) + coreClk.Cycles(interval)
	makespan := func(rounds int) sim.Time {
		res := syncron.Execute(syncron.RunSpec{Workload: "lock",
			Config: syncron.Config{Scheme: syncron.SchemeCentral, Units: 1, CoresPerUnit: 1},
			Params: syncron.WorkloadParams{Interval: interval, Rounds: rounds}})
		if res.Err != "" {
			t.Fatal(res.Err)
		}
		return res.Makespan
	}
	t10, t100 := makespan(10), makespan(100)
	if got := (t100 - t10) / 90; got != round || (t100-t10)%90 != 0 {
		t.Errorf("steady-state round (T(100) - T(10)) / 90 = (%v - %v) / 90 = %v, want %v",
			t100, t10, got, round)
	}
}
