package program

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/sim"
)

// instantBackend grants with zero latency but correct lock queueing (a
// minimal Ideal for tests).
type instantBackend struct {
	m     *arch.Machine
	held  map[uint64]bool
	queue map[uint64][]func(sim.Time)
}

func (b *instantBackend) Name() string { return "instant" }
func (b *instantBackend) Attach(m *arch.Machine) {
	b.m = m
	b.held = make(map[uint64]bool)
	b.queue = make(map[uint64][]func(sim.Time))
}
func (b *instantBackend) ExtraCacheEnergyPJ() float64 { return 0 }
func (b *instantBackend) Request(t sim.Time, core int, req arch.SyncReq, done func(sim.Time)) {
	at := func(f func(sim.Time)) { b.m.Engine.Schedule(t, f) }
	switch req.Op {
	case arch.OpLockAcquire:
		if !b.held[req.Addr] {
			b.held[req.Addr] = true
			at(done)
			return
		}
		b.queue[req.Addr] = append(b.queue[req.Addr], done)
	case arch.OpLockRelease:
		at(done)
		if q := b.queue[req.Addr]; len(q) > 0 {
			next := q[0]
			b.queue[req.Addr] = q[1:]
			at(next)
			return
		}
		b.held[req.Addr] = false
	default:
		at(done)
	}
}

// brokenBackend grants every request instantly with no queueing at all —
// used to prove the mutual-exclusion checker catches bad backends.
type brokenBackend struct{ m *arch.Machine }

func (b *brokenBackend) Name() string                { return "broken" }
func (b *brokenBackend) Attach(m *arch.Machine)      { b.m = m }
func (b *brokenBackend) ExtraCacheEnergyPJ() float64 { return 0 }
func (b *brokenBackend) Request(t sim.Time, core int, req arch.SyncReq, done func(sim.Time)) {
	b.m.Engine.Schedule(t, done)
}

func newM() *arch.Machine {
	m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
	m.Backend = &instantBackend{}
	return m
}

func TestComputeTiming(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	var finish sim.Time
	r.Add(func(ctx *Ctx) {
		ctx.Compute(1000)
		finish = ctx.Now()
	})
	r.Run()
	if want := m.CoreClock.Cycles(1000); finish != want {
		t.Fatalf("1000 instructions took %v, want %v", finish, want)
	}
}

func TestBlockingMemoryOps(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	a := m.AllocShared(0, 64)
	var t1, t2 sim.Time
	r.Add(func(ctx *Ctx) {
		ctx.Read(a)
		t1 = ctx.Now()
		ctx.Write(a)
		t2 = ctx.Now()
	})
	r.Run()
	if t1 <= 0 || t2 <= t1 {
		t.Fatalf("memory ops not blocking: %v, %v", t1, t2)
	}
}

func TestMakespanIsMaxFinish(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	r.Add(func(ctx *Ctx) { ctx.Compute(100) })
	r.Add(func(ctx *Ctx) { ctx.Compute(5000) })
	got := r.Run()
	if want := m.CoreClock.Cycles(5000); got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
}

func TestStatsCounts(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	a := m.AllocShared(0, 64)
	lock := m.Alloc(0, 64)
	r.Add(func(ctx *Ctx) {
		ctx.Compute(10)
		ctx.Read(a)
		ctx.Write(a)
		ctx.Lock(lock)
		ctx.Unlock(lock)
	})
	r.Run()
	s := r.Stats()[0]
	if s.Instrs != 10 || s.Reads != 1 || s.Writes != 1 || s.SyncOps != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := newM()
		r := NewRunner(m)
		lock := m.Alloc(0, 64)
		data := m.AllocShared(1, 64)
		r.AddN(4, func(i int) Program {
			return func(ctx *Ctx) {
				for k := 0; k < 20; k++ {
					ctx.Lock(lock)
					ctx.Read(data)
					ctx.Write(data)
					ctx.Unlock(lock)
					ctx.Compute(int64(10 * (i + 1)))
				}
			}
		})
		return r.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic makespans: %v vs %v", a, b)
	}
}

func TestLockCheckerDetectsDoubleUnlock(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	r.PanicOnViolation = false
	lock := m.Alloc(0, 64)
	r.Add(func(ctx *Ctx) {
		ctx.Lock(lock)
		ctx.Unlock(lock)
		ctx.Unlock(lock) // bug: released twice
	})
	r.Run()
	if r.Violations == 0 {
		t.Fatal("checker missed a double unlock")
	}
}

func TestLockCheckerDetectsBrokenBackend(t *testing.T) {
	// A backend that grants the same lock to everyone concurrently must be
	// flagged by the mutual-exclusion checker.
	m := arch.NewMachine(arch.Config{Units: 1, CoresPerUnit: 2})
	m.Backend = &brokenBackend{} // grants everything instantly, no queueing
	r := NewRunner(m)
	r.PanicOnViolation = false
	lock := m.Alloc(0, 64)
	r.AddN(2, func(i int) Program {
		return func(ctx *Ctx) {
			ctx.Lock(lock)
			ctx.Compute(1000) // overlap guaranteed
			ctx.Unlock(lock)
		}
	})
	r.Run()
	if r.Violations == 0 {
		t.Fatal("checker missed concurrent lock holders")
	}
}

func TestAddAtPinning(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	var unit int
	r.AddAt(3, func(ctx *Ctx) { unit = ctx.Unit })
	r.Run()
	if unit != m.UnitOf(3) {
		t.Fatalf("pinned core ran in unit %d", unit)
	}
	if st := r.Stats(); len(st) != 1 || st[0].Core != 3 {
		t.Fatalf("Stats() = %+v, want one entry for core 3", st)
	}
}

func TestTooManyProgramsPanics(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.AddN(m.NumCores()+1, func(int) Program { return func(*Ctx) {} })
}

// Every operation costs exactly one engine event: a step event for each
// Compute, Read and Write, and a grant event plus a step event for each sync
// request. A change to the per-operation event order shows here first.
func TestOneEventPerOperation(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	a := m.Alloc(0, 64) // cacheable: the second Read hits the core's L1
	lock := m.Alloc(0, 64)
	r.Add(func(ctx *Ctx) {
		ctx.Compute(10)
		ctx.Read(a) // L1 miss
		ctx.Read(a) // L1 hit
		ctx.Lock(lock)
		ctx.Unlock(lock)
	})
	r.Run()
	// 1 first step + 3 resumes after Compute/miss/hit + 2 x (grant + resume)
	// for Lock and Unlock; the final resume finds the program returned.
	const want = 1 + 3 + 2*2
	if got := m.Engine.Executed; got != want {
		t.Fatalf("executed %d events, want %d", got, want)
	}
	if st := &m.Caches[0].Stats; st.Hits.Value() != 1 || st.Misses.Value() != 1 {
		t.Fatalf("L1 hits %d, misses %d; want one each", st.Hits.Value(), st.Misses.Value())
	}
}
