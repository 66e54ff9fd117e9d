package core_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/program"
)

// TestCoordinatorSteadyStateAllocFree pins the promise of the Coordinator's
// pools (pool.go, state.go): once the continuation and state freelists are
// warm, a sync op allocates nothing, so a run of ten times the rounds
// allocates no more than the short one. Each run builds its own machine, so
// both counts include the same fixed setup.
func TestCoordinatorSteadyStateAllocFree(t *testing.T) {
	allocs := func(opt core.Options, rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 4})
			m.Backend = core.NewCoordinator(opt)
			r := program.NewRunner(m)
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
			r.Run()
		})
	}
	for _, s := range fingerprintSchemes {
		short, long := allocs(s.opt, 64), allocs(s.opt, 640)
		t.Logf("%s: %.0f allocs at 64 rounds, %.0f at 640", s.name, short, long)
		if long > short {
			t.Errorf("%s: %.0f allocs at 640 rounds > %.0f at 64: a sync op allocates in steady state",
				s.name, long, short)
		}
	}
}
