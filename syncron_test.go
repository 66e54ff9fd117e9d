package syncron_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"syncron"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sys := syncron.New(syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 4})
	lock := sys.AllocLocal(0, 64)
	counter := sys.AllocShared(1, 64)
	value := 0
	sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
		for i := 0; i < 20; i++ {
			ctx.Lock(lock)
			ctx.Read(counter)
			value++
			ctx.Write(counter)
			ctx.Unlock(lock)
			ctx.Compute(100)
		}
	})
	rep := sys.Run()
	if value != sys.NumCores()*20 {
		t.Fatalf("counter = %d, want %d", value, sys.NumCores()*20)
	}
	if rep.Makespan <= 0 || rep.TotalEnergyPJ() <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.Scheme != "syncron" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
	if len(rep.PerCore) != sys.NumCores() {
		t.Fatalf("per-core stats for %d cores", len(rep.PerCore))
	}
}

func TestAllSchemesConstructAndRun(t *testing.T) {
	for _, scheme := range syncron.Schemes() {
		t.Run(string(scheme), func(t *testing.T) {
			sys := syncron.New(syncron.Config{Scheme: scheme, Units: 2, CoresPerUnit: 2})
			lock := sys.AllocLocal(0, 64)
			sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
				for i := 0; i < 5; i++ {
					ctx.Lock(lock)
					ctx.Compute(10)
					ctx.Unlock(lock)
				}
			})
			rep := sys.Run()
			if rep.Makespan <= 0 {
				t.Fatal("no progress")
			}
			if rep.Scheme != string(scheme) {
				t.Fatalf("Report.Scheme = %q, want %q", rep.Scheme, scheme)
			}
		})
	}
}

func TestSchemeOrderingHoldsAtAPILevel(t *testing.T) {
	run := func(scheme syncron.Scheme) syncron.Time {
		sys := syncron.New(syncron.Config{Scheme: scheme})
		bar := sys.AllocLocal(0, 64)
		n := sys.NumCores()
		sys.Spawn(n, func(ctx *syncron.Context) {
			for i := 0; i < 10; i++ {
				ctx.Compute(100)
				ctx.BarrierAcrossUnits(bar, n)
			}
		})
		return sys.Run().Makespan
	}
	ideal := run(syncron.SchemeIdeal)
	sc := run(syncron.SchemeSynCron)
	central := run(syncron.SchemeCentral)
	if !(ideal < sc && sc < central) {
		t.Fatalf("ordering violated: ideal=%v syncron=%v central=%v", ideal, sc, central)
	}
}

func TestSTOccupancyReported(t *testing.T) {
	sys := syncron.New(syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 4, STEntries: 8})
	locks := make([]uint64, 16)
	for i := range locks {
		locks[i] = sys.AllocLocal(i%2, 64)
	}
	sys.SpawnEach(sys.NumCores(), func(i int) syncron.Program {
		return func(ctx *syncron.Context) {
			for k := 0; k < 10; k++ {
				l := locks[(i*3+k)%len(locks)]
				ctx.Lock(l)
				ctx.Compute(50)
				ctx.Unlock(l)
			}
		}
	})
	rep := sys.Run()
	if rep.STOccupancyMax <= 0 {
		t.Fatal("ST occupancy not reported")
	}
}

// TestBankRunAllocsPerEvent bounds allocations per engine event in a whole
// bank-model run, counting only System.Run (not the workload's set-up). The
// bank scheduler's per-access path is allocation-free (see internal/mem);
// this catches steady-state allocations that its narrow loop cannot see.
// ts.air at scale 0.1 runs long enough that the per-core coroutine start-up
// is a small share; it measured about 0.02 allocs/event.
func TestBankRunAllocsPerEvent(t *testing.T) {
	w, _ := syncron.LookupWorkload("ts.air")
	sys := syncron.New(syncron.Config{MemModel: syncron.MemModelBank, Seed: 1})
	if _, err := w.Prepare(sys, syncron.WorkloadParams{Scale: 0.1}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := sys.Run()
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(rep.Events)
	if perEvent > 0.05 {
		t.Fatalf("bank-model ts.air run: %.3f allocs/event over %d events, want at most 0.05",
			perEvent, rep.Events)
	}
	t.Logf("%.4f allocs/event over %d events", perEvent, rep.Events)
}

// The coherence-lock schemes model only locks and barriers: a program that
// needs any other primitive fails with an error naming the scheme and the op
// instead of having it granted at once. (RunSpec.Validate rejects the
// registered workloads that would do so before they run; see
// TestExecuteRejectsNegativeParameters.)
func TestCoherenceLockSchemesRejectUnmodeledOps(t *testing.T) {
	for _, scheme := range []syncron.Scheme{syncron.SchemeMESILock, syncron.SchemeTTAS, syncron.SchemeHTL} {
		for _, tc := range []struct {
			workload, op string
			body         func(ctx *syncron.Context, v uint64)
		}{
			{"semaphore", "sem_wait", func(ctx *syncron.Context, v uint64) { ctx.SemWait(v, 0) }},
			{"condvar", "cond_wait", func(ctx *syncron.Context, v uint64) {
				ctx.Lock(v + 64)
				ctx.CondWait(v, v+64)
			}},
		} {
			t.Run(string(scheme)+"/"+tc.workload, func(t *testing.T) {
				sys := syncron.New(syncron.Config{Scheme: scheme, Units: 2, CoresPerUnit: 2})
				v := sys.AllocLocal(0, 128)
				sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) { tc.body(ctx, v) })
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, tc.op) || !strings.Contains(msg, string(scheme)) {
						t.Fatalf("panic %q, want one naming %s and %s", msg, tc.op, scheme)
					}
				}()
				sys.Run()
			})
		}
	}
}

// Every overflow policy must carry an overflowing workload to completion:
// bst_fg keeps more live locks than a 2-, 4- or 8-entry ST holds, so each
// run below switches variables to memory or to the software fallback while
// other cores hold or wait for them. The overflowed share counts each
// request at most once.
func TestOverflowPoliciesCompleteBstFg(t *testing.T) {
	for _, pol := range []syncron.OverflowPolicy{syncron.OverflowIntegrated,
		syncron.OverflowCentral, syncron.OverflowDistrib} {
		for _, st := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("policy%d/st%d", pol, st), func(t *testing.T) {
				res := syncron.Execute(syncron.RunSpec{Workload: "bst_fg",
					Config: syncron.Config{Scheme: syncron.SchemeSynCron, STEntries: st, Overflow: pol},
					Params: syncron.WorkloadParams{Scale: 0.05}})
				if res.Err != "" {
					t.Fatal(res.Err)
				}
				if f := res.OverflowedFraction; f <= 0 || f > 1 {
					t.Fatalf("overflowed fraction %v, want in (0, 1]", f)
				}
			})
		}
	}
}
