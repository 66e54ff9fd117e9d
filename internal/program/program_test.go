package program

import (
	"fmt"
	"strings"
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
	lock := m.Alloc(0, 64)
	r.Add(func(ctx *Ctx) {
		ctx.Lock(lock)
		ctx.Unlock(lock)
		ctx.Unlock(lock) // bug: released twice
	})
	msg, _ := runRecover(r).(string)
	if want := fmt.Sprintf("released lock %#x it does not hold", lock); !strings.Contains(msg, want) {
		t.Fatalf("Run panicked with %q, want a message containing %q", msg, want)
	}
}

func TestLockCheckerDetectsBrokenBackend(t *testing.T) {
	// A backend that grants the same lock to everyone concurrently must be
	// flagged by the mutual-exclusion checker.
	m := arch.NewMachine(arch.Config{Units: 1, CoresPerUnit: 2})
	m.Backend = &brokenBackend{} // grants everything instantly, no queueing
	r := NewRunner(m)
	lock := m.Alloc(0, 64)
	r.AddN(2, func(i int) Program {
		return func(ctx *Ctx) {
			ctx.Lock(lock)
			ctx.Compute(1000) // overlap guaranteed
			ctx.Unlock(lock)
		}
	})
	msg, _ := runRecover(r).(string)
	if want := fmt.Sprintf("mutual exclusion violated: lock %#x", lock); !strings.Contains(msg, want) {
		t.Fatalf("Run panicked with %q, want a message containing %q", msg, want)
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

// Every operation costs exactly one engine event: one event for each
// Compute, Read and Write — a queued entry's event for Compute, L1 hits and
// settled reads, which run inside the coroutine, a resume event for a miss,
// and for each scanned read the event at its completion that runs the
// program's check, whether or not the program resumes there — and a grant
// event plus a resume event for each sync request. After RunAhead a sync
// request is queued too, and its resume event plays the rest of the queue
// instead of resuming the program: the count is the same. A change to the
// per-operation event order shows here first.
func TestOneEventPerOperation(t *testing.T) {
	for _, ahead := range []bool{false, true} {
		m := newM()
		r := NewRunner(m)
		a := m.Alloc(0, 64) // cacheable: the second Read hits the core's L1
		shared := m.AllocShared(1, 64)
		lock := m.Alloc(0, 64)
		r.Add(func(ctx *Ctx) {
			if ahead {
				ctx.RunAhead()
			}
			ctx.Compute(10)
			ctx.Read(a)                                          // L1 miss
			ctx.Read(a)                                          // L1 hit
			ctx.ReadSettled(shared, func() bool { return true }) // queued
			ctx.ScanReads(0, 2, 0, func(int) uint64 { return shared },
				func(int) bool { return false }) // two scanned reads
			ctx.Lock(lock)
			ctx.Unlock(lock)
		})
		r.Run()
		// 1 first step + 4 events ending Compute/miss/hit/settled read + 2
		// scanned reads + 2 x (grant + resume) for Lock and Unlock; the final
		// resume finds the program returned.
		const want = 1 + 4 + 2 + 2*2
		if got := m.Engine.Executed; got != want {
			t.Fatalf("RunAhead %v: executed %d events, want %d", ahead, got, want)
		}
		if st := &m.Caches[0].Stats; st.Hits.Value() != 1 || st.Misses.Value() != 1 {
			t.Fatalf("L1 hits %d, misses %d; want one each", st.Hits.Value(), st.Misses.Value())
		}
	}
}

// Compute and L1 hits run inside the coroutine, but Now, the per-core stats
// and the L1's own counters see them exactly as if each had been its own
// engine round trip: a hit costs the L1's 4 cycles, n instructions cost n
// cycles, and a trailing Compute still sets Finish.
func TestCorePrivateOpsTiming(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	cyc := m.CoreClock.Period
	a := m.Alloc(0, 64)
	var afterCompute, afterMiss, afterRead, afterWrite, end sim.Time
	r.Add(func(ctx *Ctx) {
		ctx.Compute(100)
		afterCompute = ctx.Now()
		ctx.Read(a) // L1 miss: yields
		afterMiss = ctx.Now()
		ctx.Read(a) // L1 hit
		afterRead = ctx.Now()
		ctx.Write(a) // L1 hit
		afterWrite = ctx.Now()
		ctx.Compute(7)
		end = ctx.Now()
	})
	makespan := r.Run()
	if afterCompute != 100*cyc {
		t.Errorf("Now after Compute(100) = %v, want %v", afterCompute, 100*cyc)
	}
	if afterMiss <= afterCompute {
		t.Fatalf("miss completed at %v, not after its issue at %v", afterMiss, afterCompute)
	}
	if afterRead != afterMiss+4*cyc || afterWrite != afterMiss+8*cyc {
		t.Errorf("Now after read/write hits = %v/%v, want %v/%v",
			afterRead, afterWrite, afterMiss+4*cyc, afterMiss+8*cyc)
	}
	if want := afterMiss + 15*cyc; end != want || makespan != want {
		t.Errorf("trailing Compute(7): Now %v, makespan %v, want %v", end, makespan, want)
	}
	s := r.Stats()[0]
	if s.Instrs != 107 || s.Reads != 2 || s.Writes != 1 || s.SyncOps != 0 || s.Finish != end {
		t.Errorf("stats = %+v, want 107 instrs, 2 reads, 1 write, finish %v", s, end)
	}
	if st := &m.Caches[0].Stats; st.Hits.Value() != 2 || st.Misses.Value() != 1 || st.Bypasses.Value() != 0 {
		t.Errorf("L1 hits %d, misses %d, bypasses %d; want 2, 1, 0",
			st.Hits.Value(), st.Misses.Value(), st.Bypasses.Value())
	}
}

// The host-order contract: Go code after a Compute or an L1 hit runs at the
// completion of the core's previous miss, uncacheable access or sync op, so
// it sees shared Go state as of then, even though Now already counts the
// queued time. Core 2 sets flag at t1, after core 0's miss completes (t0)
// and before core 0's Compute ends: core 0's code after the Compute and a
// hit still sees false, and sees true only after its next uncacheable read.
func TestHostOrderAfterCoreLocalOps(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	cyc := m.CoreClock.Period
	priv := m.Alloc(0, 64)
	near, far := m.AllocShared(0, 64), m.AllocShared(1, 64)
	flag := false
	var t0, t1, nowBefore sim.Time
	var before, after bool
	r.AddAt(0, func(ctx *Ctx) {
		ctx.Read(priv) // L1 miss
		t0 = ctx.Now()
		ctx.Compute(1000)
		ctx.Read(priv) // L1 hit
		before, nowBefore = flag, ctx.Now()
		ctx.Read(near) // uncacheable: yields
		after = flag
	})
	r.AddAt(2, func(ctx *Ctx) { // unit 1
		ctx.Read(far)
		ctx.Read(far)
		t1 = ctx.Now()
		flag = true
	})
	r.Run()
	if !(t0 < t1 && t1 < t0+1000*cyc) {
		t.Fatalf("fixture needs t0 < t1 < t0+1000 cycles; got t0 %v, t1 %v", t0, t1)
	}
	if before {
		t.Errorf("code after Compute and a hit saw core 2's store from %v; it runs at %v", t1, t0)
	}
	if want := t0 + 1004*cyc; nowBefore != want {
		t.Errorf("Now after Compute and a hit = %v, want %v", nowBefore, want)
	}
	if !after {
		t.Error("code after the next uncacheable access missed core 2's store")
	}
}

// A long compute-only loop plays every delay as its own event, from a queue
// of fixed size: the run allocates no more than a short one does.
func TestComputeLoopQueueBounded(t *testing.T) {
	run := func(iters int) (*arch.Machine, sim.Time) {
		m := newM()
		r := NewRunner(m)
		r.Add(func(ctx *Ctx) {
			for i := 0; i < iters; i++ {
				ctx.Compute(1)
			}
		})
		return m, r.Run()
	}
	const iters = 10000
	m, makespan := run(iters)
	if want := iters * m.CoreClock.Period; makespan != want {
		t.Fatalf("makespan %v, want %v", makespan, want)
	}
	if got, want := m.Engine.Executed, uint64(1+iters); got != want {
		t.Errorf("executed %d events, want %d (first step + one per Compute)", got, want)
	}
	short := testing.AllocsPerRun(5, func() { run(100) })
	long := testing.AllocsPerRun(5, func() { run(iters) })
	if long > short {
		t.Errorf("%d-iteration loop allocated %.0f objects, a 100-iteration one %.0f", iters, long, short)
	}
}
