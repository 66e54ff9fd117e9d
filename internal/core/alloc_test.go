package core_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/program"
)

// syncOpMix has every core lock, cross a barrier and take a semaphore in
// each of rounds rounds.
func syncOpMix(m *arch.Machine, r *program.Runner, rounds int) {
	lock, bar, sem, n := m.Alloc(0, 64), m.Alloc(1, 64), m.Alloc(1, 64), m.NumCores()
	for c := 0; c < n; c++ {
		r.AddAt(c, func(ctx *program.Ctx) {
			for k := 0; k < rounds; k++ {
				ctx.Lock(lock)
				ctx.Compute(20)
				ctx.Unlock(lock)
				ctx.BarrierAcrossUnits(bar, n)
				ctx.SemWait(sem, 2)
				ctx.Compute(10)
				ctx.SemPost(sem)
			}
		})
	}
}

// TestCoordinatorSteadyStateAllocFree pins the promise of the Coordinator's
// pools (pool.go, state.go): once the continuation and state freelists are
// warm, a sync op allocates nothing, so a run of ten times the rounds
// allocates no more than the short one. Each run builds its own machine, so
// both counts include the same fixed setup. The four schemes run a mix of
// sync ops; the two fallback policies run lockPairs at a 1-entry ST, so the
// software fallback runs in steady state.
func TestCoordinatorSteadyStateAllocFree(t *testing.T) {
	check := func(name string, opt core.Options, prog func(*arch.Machine, *program.Runner, int)) {
		allocs := func(rounds int) float64 {
			return testing.AllocsPerRun(3, func() {
				m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 4})
				m.Backend = core.NewCoordinator(opt)
				r := program.NewRunner(m)
				prog(m, r, rounds)
				r.Run()
			})
		}
		short, long := allocs(64), allocs(640)
		t.Logf("%s: %.0f allocs at 64 rounds, %.0f at 640", name, short, long)
		if long > short {
			t.Errorf("%s: %.0f allocs at 640 rounds > %.0f at 64: a sync op allocates in steady state",
				name, long, short)
		}
	}
	for _, s := range fingerprintSchemes {
		check(s.name, s.opt, syncOpMix)
	}
	for _, pol := range []core.OverflowPolicy{core.OverflowCentral, core.OverflowDistrib} {
		opt := core.Options{Topology: core.TopoHier, HardwareSE: true, STEntries: 1, Overflow: pol}
		check("syncron "+policyNames[pol], opt, lockPairs)
	}
}
