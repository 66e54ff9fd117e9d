package core_test

import (
	"fmt"
	"testing"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/core"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// backendsUnderTest returns fresh instances of every message-passing scheme.
func backendsUnderTest() map[string]func() arch.Backend {
	return map[string]func() arch.Backend{
		"syncron":      func() arch.Backend { return core.NewSynCron() },
		"syncron-flat": func() arch.Backend { return core.NewSynCronFlat() },
		"central":      func() arch.Backend { return baselines.NewCentral() },
		"hier":         func() arch.Backend { return baselines.NewHier() },
		"ideal":        func() arch.Backend { return baselines.NewIdeal() },
	}
}

func newTestMachine(t *testing.T, b arch.Backend) *arch.Machine {
	t.Helper()
	cfg := arch.Config{}
	cfg.Units = 2
	cfg.CoresPerUnit = 4
	m := arch.NewMachine(cfg)
	m.Backend = b
	return m
}

func TestLockMutualExclusionAllSchemes(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			lock := m.Alloc(1, 8)
			counter := 0
			const iters = 25
			r.AddN(m.NumCores(), func(i int) program.Program {
				return func(ctx *program.Ctx) {
					for k := 0; k < iters; k++ {
						ctx.Lock(lock)
						counter++ // critical section, guarded by the checker
						ctx.Compute(20)
						ctx.Unlock(lock)
						ctx.Compute(30)
					}
				}
			})
			end := r.Run()
			if counter != m.NumCores()*iters {
				t.Fatalf("%s: counter = %d, want %d", name, counter, m.NumCores()*iters)
			}
			if end <= 0 {
				t.Fatalf("%s: non-positive makespan %v", name, end)
			}
		})
	}
}

func TestBarrierAcrossUnitsAllSchemes(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			bar := m.Alloc(0, 8)
			n := m.NumCores()
			const phases = 10
			phaseCount := make([]int, phases)
			r.AddN(n, func(i int) program.Program {
				return func(ctx *program.Ctx) {
					for p := 0; p < phases; p++ {
						// Every core must see all previous-phase arrivals
						// complete before any next-phase work starts.
						phaseCount[p]++
						ctx.BarrierAcrossUnits(bar, n)
						if phaseCount[p] != n {
							t.Errorf("%s: core %d passed barrier phase %d with %d/%d arrivals",
								name, ctx.ID, p, phaseCount[p], n)
						}
						ctx.Compute(int64(10 * (ctx.ID + 1)))
					}
				}
			})
			r.Run()
		})
	}
}

func TestBarrierSubsetAcrossUnits(t *testing.T) {
	// A subset barrier (fewer participants than all cores) exercises the
	// one-level redirect path in hierarchical schemes.
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			bar := m.Alloc(1, 8)
			n := 5 // not a multiple of anything relevant
			arrived := 0
			r.AddN(n, func(i int) program.Program {
				return func(ctx *program.Ctx) {
					ctx.Compute(int64(5 * (i + 1)))
					arrived++
					ctx.BarrierAcrossUnits(bar, n)
					if arrived != n {
						t.Errorf("%s: passed subset barrier with %d/%d", name, arrived, n)
					}
				}
			})
			r.Run()
		})
	}
}

func TestBarrierWithinUnit(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			bar := m.Alloc(0, 8)
			n := m.Cfg.CoresPerUnit
			arrived := 0
			r.AddN(n, func(i int) program.Program { // cores 0..3 are all in unit 0
				return func(ctx *program.Ctx) {
					ctx.Compute(int64(7 * (i + 1)))
					arrived++
					ctx.BarrierWithinUnit(bar, n)
					if arrived != n {
						t.Errorf("%s: passed within-unit barrier with %d/%d", name, arrived, n)
					}
				}
			})
			r.Run()
		})
	}
}

func TestSemaphoreCounting(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			sem := m.Alloc(0, 8)
			const slots = 3
			inside := 0
			maxInside := 0
			r.AddN(m.NumCores(), func(i int) program.Program {
				return func(ctx *program.Ctx) {
					for k := 0; k < 10; k++ {
						ctx.SemWait(sem, slots)
						inside++
						if inside > maxInside {
							maxInside = inside
						}
						ctx.Compute(50)
						inside--
						ctx.SemPost(sem)
					}
				}
			})
			r.Run()
			if maxInside > slots {
				t.Fatalf("%s: semaphore admitted %d concurrent holders, max %d", name, maxInside, slots)
			}
			if maxInside == 0 {
				t.Fatalf("%s: semaphore never admitted anyone", name)
			}
		})
	}
}

func TestConditionVariableSignal(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			cond := m.Alloc(0, 8)
			lock := m.Alloc(0, 8)
			// Mesa-style producer/consumer over an items counter: with one
			// produced item (and one signal) per consumer, no consumer can
			// block forever.
			items := 0
			consumed := 0
			producers, consumers := 4, 4
			r.AddN(consumers, func(i int) program.Program {
				return func(ctx *program.Ctx) {
					ctx.Lock(lock)
					for items == 0 {
						ctx.CondWait(cond, lock)
					}
					items--
					consumed++
					ctx.Unlock(lock)
				}
			})
			r.AddN(producers, func(i int) program.Program {
				return func(ctx *program.Ctx) {
					ctx.Compute(int64(100 * (i + 1)))
					ctx.Lock(lock)
					items++
					ctx.CondSignal(cond, lock)
					ctx.Unlock(lock)
				}
			})
			r.Run()
			if consumed != consumers {
				t.Fatalf("%s: %d items consumed, want %d", name, consumed, consumers)
			}
		})
	}
}

func TestLockFairnessThreshold(t *testing.T) {
	b := core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true, FairnessThreshold: 2})
	cfg := arch.Config{}
	cfg.Units = 2
	cfg.CoresPerUnit = 4
	m := arch.NewMachine(cfg)
	m.Backend = b
	r := program.NewRunner(m)
	lock := m.Alloc(0, 8)
	total := 0
	r.AddN(m.NumCores(), func(i int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < 20; k++ {
				ctx.Lock(lock)
				total++
				ctx.Unlock(lock)
			}
		}
	})
	r.Run()
	if total != m.NumCores()*20 {
		t.Fatalf("fairness run lost operations: %d", total)
	}
}

// TestLockFairnessBoundsUnitBatches: with the §4.4.2 fairness threshold set,
// a unit that has served threshold local grants hands the contended lock to
// the other waiting unit, wherever the lock is homed, so no unit gets more
// than threshold consecutive grants.
func TestLockFairnessBoundsUnitBatches(t *testing.T) {
	for _, threshold := range []int{1, 2} {
		for home := 0; home < 2; home++ {
			m := newTestMachine(t, core.NewCoordinator(core.Options{Topology: core.TopoHier,
				HardwareSE: true, FairnessThreshold: threshold}))
			r := program.NewRunner(m)
			lock := m.Alloc(home, 8)
			var grants []int // the unit of each grant, in grant order
			r.AddN(m.NumCores(), func(i int) program.Program {
				return func(ctx *program.Ctx) {
					for k := 0; k < 10; k++ {
						ctx.Lock(lock)
						grants = append(grants, m.UnitOf(i))
						ctx.Compute(20)
						ctx.Unlock(lock)
					}
				}
			})
			r.Run()
			batch := 0
			for g, unit := range grants[:40] {
				if g > 0 && unit == grants[g-1] {
					batch++
				} else {
					batch = 1
				}
				if batch > threshold {
					t.Fatalf("threshold %d, lock in unit %d: unit %d got %d consecutive grants (grants %v)",
						threshold, home, unit, batch, grants[:40])
				}
			}
		}
	}
}

func TestSTOverflowIntegrated(t *testing.T) {
	// A tiny ST forces overflow; correctness must be preserved and the
	// overflow fraction must be visible in stats.
	b := core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true, STEntries: 2})
	cfg := arch.Config{}
	cfg.Units = 2
	cfg.CoresPerUnit = 4
	m := arch.NewMachine(cfg)
	m.Backend = b
	r := program.NewRunner(m)
	// Many concurrently-held locks: each core holds two locks at once
	// (hand-over-hand), exceeding 2 ST entries per SE.
	locks := make([]uint64, 16)
	for i := range locks {
		locks[i] = m.Alloc(i%2, 8)
	}
	r.AddN(m.NumCores(), func(i int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < 8; k++ {
				a := locks[(i+k)%len(locks)]
				bAddr := locks[(i+k+3)%len(locks)]
				if a == bAddr {
					continue
				}
				// Order locks by address to avoid deadlock.
				lo, hi := a, bAddr
				if lo > hi {
					lo, hi = hi, lo
				}
				ctx.Lock(lo)
				ctx.Lock(hi)
				ctx.Compute(10)
				ctx.Unlock(hi)
				ctx.Unlock(lo)
			}
		}
	})
	r.Run()
	if b.OverflowedFraction() == 0 {
		t.Fatal("expected some overflowed requests with a 2-entry ST")
	}
	max, mean := b.STOccupancy()
	if max <= 0 || max > 1 || mean < 0 || mean > 1 {
		t.Fatalf("implausible ST occupancy: max=%f mean=%f", max, mean)
	}
}

// lockPairs has every core take two of four locks, nested in address order,
// in each of rounds rounds. At a 1-entry ST it drives the fallback policies
// into the software fallback.
func lockPairs(m *arch.Machine, r *program.Runner, rounds int) {
	locks := []uint64{m.Alloc(0, 8), m.Alloc(1, 8), m.Alloc(0, 8), m.Alloc(1, 8)}
	r.AddN(m.NumCores(), func(i int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < rounds; k++ {
				a, bAddr := locks[k%4], locks[(k+1)%4]
				lo, hi := a, bAddr
				if lo > hi {
					lo, hi = hi, lo
				}
				ctx.Lock(lo)
				ctx.Lock(hi)
				ctx.Compute(5)
				ctx.Unlock(hi)
				ctx.Unlock(lo)
			}
		}
	})
}

func TestOverflowFallbackPolicies(t *testing.T) {
	for _, pol := range []core.OverflowPolicy{core.OverflowCentral, core.OverflowDistrib} {
		pol := pol
		t.Run(fmt.Sprint(pol), func(t *testing.T) {
			b := core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true,
				STEntries: 1, Overflow: pol})
			cfg := arch.Config{}
			cfg.Units = 2
			cfg.CoresPerUnit = 4
			m := arch.NewMachine(cfg)
			m.Backend = b
			r := program.NewRunner(m)
			lockPairs(m, r, 10)
			r.Run()
			if b.AbortsSent() == 0 {
				t.Fatal("expected fallback aborts with a 1-entry ST")
			}
		})
	}
}

// TestFallbackHolderIsTracked checks that a lock acquire reaching the
// software fallback server after its variable left the fallback is handled
// like any other master acquire: while its core holds the lock, the master
// tracks the variable with an ST entry or in the fallback again. The
// fingerprint's lock program at a 1-entry ST has such late acquires under
// both fallback policies.
func TestFallbackHolderIsTracked(t *testing.T) {
	for _, pol := range []core.OverflowPolicy{core.OverflowCentral, core.OverflowDistrib} {
		b := core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true,
			STEntries: 1, Overflow: pol})
		m := newTestMachine(t, b)
		r := program.NewRunner(m)
		untracked := 0
		nestedLocks(m, r, func(lock uint64) {
			if !b.MasterTracks(lock) {
				untracked++
			}
		})
		r.Run()
		if untracked > 0 {
			t.Errorf("%s: %d lock grants left their variable untracked by the master", policyNames[pol], untracked)
		}
	}
}

func TestFetchAddRMW(t *testing.T) {
	b := core.NewSynCron()
	cfg := arch.Config{}
	cfg.Units = 2
	cfg.CoresPerUnit = 4
	m := arch.NewMachine(cfg)
	m.Backend = b
	r := program.NewRunner(m)
	v := m.Alloc(1, 8)
	r.AddN(m.NumCores(), func(i int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < 10; k++ {
				ctx.FetchAdd(v, 1)
			}
		}
	})
	r.Run()
	if got := b.RMWValue(v); got != uint64(m.NumCores()*10) {
		t.Fatalf("fetch-add total = %d, want %d", got, m.NumCores()*10)
	}
}

func TestHierBeatsCentralUnderContention(t *testing.T) {
	// The paper's core claim at small scale: with all cores pounding one
	// lock, hierarchical schemes beat Central, and Ideal beats everything.
	times := map[string]sim.Time{}
	for name, mk := range backendsUnderTest() {
		m := newTestMachine(t, mk())
		r := program.NewRunner(m)
		lock := m.Alloc(0, 8)
		r.AddN(m.NumCores(), func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < 40; k++ {
					ctx.Lock(lock)
					ctx.Compute(10)
					ctx.Unlock(lock)
					ctx.Compute(50)
				}
			}
		})
		times[name] = r.Run()
	}
	if times["ideal"] >= times["syncron"] {
		t.Errorf("ideal (%v) should beat syncron (%v)", times["ideal"], times["syncron"])
	}
	if times["syncron"] >= times["central"] {
		t.Errorf("syncron (%v) should beat central (%v)", times["syncron"], times["central"])
	}
	if times["hier"] >= times["central"] {
		t.Errorf("hier (%v) should beat central (%v)", times["hier"], times["central"])
	}
}
