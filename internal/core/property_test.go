package core_test

import (
	"testing"
	"testing/quick"

	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// TestSchemesFunctionallyEquivalent is the central property of the whole
// reproduction: for a random mix of lock-protected counter increments, every
// synchronization scheme must produce exactly the same functional result —
// schemes may only differ in time, traffic, and energy.
func TestSchemesFunctionallyEquivalent(t *testing.T) {
	type workload struct {
		Cores   uint8
		Locks   uint8
		OpsEach uint8
		Compute uint16
	}
	f := func(w workload) bool {
		cores := int(w.Cores%6) + 2
		nlocks := int(w.Locks%4) + 1
		ops := int(w.OpsEach%12) + 3
		results := map[string]int{}
		for name, mk := range backendsUnderTest() {
			b := mk()
			cfg := arch.Config{}
			cfg.Units = 2
			cfg.CoresPerUnit = (cores + 1) / 2
			m := arch.NewMachine(cfg)
			m.Backend = b
			r := program.NewRunner(m)
			locks := make([]uint64, nlocks)
			for i := range locks {
				locks[i] = m.Alloc(i%2, 64)
			}
			counters := make([]int, nlocks)
			r.AddN(cores, func(i int) program.Program {
				return func(ctx *program.Ctx) {
					for k := 0; k < ops; k++ {
						l := (i + k) % nlocks
						ctx.Lock(locks[l])
						counters[l]++
						ctx.Compute(int64(w.Compute % 500))
						ctx.Unlock(locks[l])
					}
				}
			})
			r.Run()
			total := 0
			for _, c := range counters {
				total += c
			}
			results[name] = total
		}
		want := cores * ops
		for name, got := range results {
			if got != want {
				t.Logf("%s produced %d, want %d", name, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicMakespans: identical configuration => identical timing.
func TestDeterministicMakespans(t *testing.T) {
	run := func() sim.Time {
		m := newTestMachine(t, core.NewSynCron())
		r := program.NewRunner(m)
		lock := m.Alloc(0, 64)
		bar := m.Alloc(1, 64)
		r.AddN(m.NumCores(), func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < 15; k++ {
					ctx.Lock(lock)
					ctx.Compute(20)
					ctx.Unlock(lock)
					ctx.BarrierAcrossUnits(bar, m.NumCores())
				}
			}
		})
		return r.Run()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// TestHierarchyReducesInterUnitTraffic: under single-lock contention,
// SynCron's SE-level aggregation must cross units less often than the flat
// variant (the Figure 21b mechanism).
func TestHierarchyReducesInterUnitTraffic(t *testing.T) {
	traffic := func(mk func() arch.Backend) uint64 {
		cfg := arch.Config{}
		cfg.Units = 4
		cfg.CoresPerUnit = 8
		m := arch.NewMachine(cfg)
		m.Backend = mk()
		r := program.NewRunner(m)
		lock := m.Alloc(0, 64)
		r.AddN(m.NumCores(), func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < 30; k++ {
					ctx.Lock(lock)
					ctx.Compute(5)
					ctx.Unlock(lock)
				}
			}
		})
		r.Run()
		_, inter := m.DataMovement()
		return inter
	}
	hier := traffic(func() arch.Backend { return core.NewSynCron() })
	flat := traffic(func() arch.Backend { return core.NewSynCronFlat() })
	if hier >= flat {
		t.Fatalf("hierarchical inter-unit traffic %d not below flat %d", hier, flat)
	}
}

// TestBarrierReuse: the same barrier variable must be reusable round after
// round (the graph apps' pattern) without state leakage.
func TestBarrierReuse(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t, mk())
			r := program.NewRunner(m)
			bar := m.Alloc(0, 64)
			n := m.NumCores()
			const rounds = 25
			phase := 0
			r.AddN(n, func(i int) program.Program {
				return func(ctx *program.Ctx) {
					for k := 0; k < rounds; k++ {
						if phase != k {
							t.Errorf("%s: core %d entered round %d during phase %d", name, ctx.ID, k, phase)
						}
						ctx.Compute(int64(1 + (i*7+k*13)%40))
						ctx.BarrierAcrossUnits(bar, n)
						if ctx.ID == 0 {
							phase = k + 1
						}
						ctx.BarrierAcrossUnits(bar, n)
					}
				}
			})
			r.Run()
		})
	}
}

// TestSTEntryLifecycle: after a run with transient locks, all ST entries
// must have been released (occupancy returns to zero).
func TestSTEntryLifecycle(t *testing.T) {
	b := core.NewSynCron()
	m := newTestMachine(t, b)
	r := program.NewRunner(m)
	locks := make([]uint64, 8)
	for i := range locks {
		locks[i] = m.Alloc(i%2, 64)
	}
	r.AddN(m.NumCores(), func(i int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < 10; k++ {
				l := locks[(i+k)%len(locks)]
				ctx.Lock(l)
				ctx.Compute(10)
				ctx.Unlock(l)
			}
		}
	})
	r.Run()
	max, _ := b.STOccupancy()
	if max <= 0 {
		t.Fatal("locks never occupied the ST")
	}
	if b.STEntriesLive() != 0 {
		t.Fatalf("%d ST entries leaked after the run", b.STEntriesLive())
	}
}

// TestOverflowAliasing: two variables aliasing to the same indexing counter
// must still synchronize correctly (aliasing affects performance only,
// §4.2.3).
func TestOverflowAliasing(t *testing.T) {
	b := core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true,
		STEntries: 1})
	m := newTestMachine(t, b)
	r := program.NewRunner(m)
	// Addresses 256 lines apart alias on the SE's 256 indexing counters.
	l1 := m.Alloc(0, 256*64)
	l2 := m.Alloc(0, 256*64)
	l3 := m.Alloc(0, 64)
	count := 0
	r.AddN(m.NumCores(), func(i int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < 10; k++ {
				a, bb := l1, l2
				switch k % 3 {
				case 1:
					a, bb = l2, l3
				case 2:
					a, bb = l1, l3
				}
				ctx.Lock(a)
				ctx.Lock(bb)
				count++
				ctx.Unlock(bb)
				ctx.Unlock(a)
			}
		}
	})
	r.Run()
	if count != m.NumCores()*10 {
		t.Fatalf("aliased overflow lost operations: %d", count)
	}
	if b.OverflowedFraction() == 0 {
		t.Fatal("expected overflow with 1-entry ST")
	}
}
