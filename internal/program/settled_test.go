package program

import (
	"bytes"
	"slices"
	"testing"

	"syncron/internal/arch"
	"syncron/internal/sim"
	"syncron/internal/trace"
)

// minRun is the outcome of one minUpdates run.
type minRun struct {
	events   uint64
	makespan sim.Time
	stats    []Stats
	best     []int
	trace    []byte
	waited   int // checks that waited for their read's completion
}

// minUpdates runs a SCRIMP-style kernel on four cores in two units: each
// core folds pseudo-random values into a shared array of minima, checking
// each entry with an unlocked read and taking the entry's lock only when its
// value improves the minimum. With settled set, the unlocked check is
// ReadSettled; otherwise it is Read followed by the same check.
func minUpdates(settled bool) minRun {
	const entries, updates = 16, 200
	col := trace.NewCollector()
	m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2, Tracer: col})
	m.Backend = &instantBackend{}
	r := NewRunner(m)
	best := make([]int, entries)
	data := make([]uint64, entries)
	locks := make([]uint64, entries)
	for i := range best {
		best[i] = 1 << 20
		data[i] = m.AllocShared(i%2, 64)
		locks[i] = m.Alloc(i%2, 64)
	}
	calls, checks := 0, 0
	r.AddN(m.NumCores(), func(int) Program {
		return func(ctx *Ctx) {
			hot := m.Alloc(ctx.Unit, 64)
			for k := 0; k < updates; k++ {
				i, d := ctx.RNG.Intn(entries), ctx.RNG.Intn(1<<20)
				ctx.Read(hot)
				ctx.Compute(int64(1 + k%7))
				var skip bool
				if settled {
					calls++
					// The minima only fall, so d >= best[i] stays true.
					skip = ctx.ReadSettled(data[i], func() bool { checks++; return d >= best[i] })
				} else {
					ctx.Read(data[i])
					skip = d >= best[i]
				}
				if skip {
					continue
				}
				ctx.Lock(locks[i])
				if d < best[i] {
					best[i] = d
					ctx.Write(data[i])
				}
				ctx.Unlock(locks[i])
			}
		}
	})
	out := minRun{makespan: r.Run(), stats: r.Stats(), best: best}
	m.FlushTrace()
	out.events = m.Engine.Executed
	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		panic(err)
	}
	out.trace = csv.Bytes()
	// A settled check runs once, an unsettled one again at its read's
	// completion.
	out.waited = checks - calls
	return out
}

// ReadSettled changes when program code runs on the host, not what the
// simulation does: a kernel written with it runs the same events, in the
// same order, with the same timing, counters and trace as the kernel
// written with Read and the check.
func TestReadSettledMatchesReadAndCheck(t *testing.T) {
	want, got := minUpdates(false), minUpdates(true)
	if reads := 4 * 200; got.waited <= 0 || got.waited >= reads {
		t.Fatalf("%d of %d checks waited for their read; the fixture needs both paths", got.waited, reads)
	}
	if got.events != want.events {
		t.Errorf("executed %d events, Read and check executed %d", got.events, want.events)
	}
	if got.makespan != want.makespan {
		t.Errorf("makespan %v, Read and check %v", got.makespan, want.makespan)
	}
	if !slices.Equal(got.stats, want.stats) {
		t.Errorf("per-core stats %+v, Read and check %+v", got.stats, want.stats)
	}
	if !slices.Equal(got.best, want.best) {
		t.Errorf("minima %v, Read and check %v", got.best, want.best)
	}
	if len(want.trace) < 1000 || !bytes.Equal(got.trace, want.trace) {
		t.Errorf("trace CSVs differ or are empty: %d vs %d bytes", len(got.trace), len(want.trace))
	}
}

// On the unsettled path the check runs at the read's completion, as code
// after Read would: it sees a store core 2 makes while core 0's remote read
// is in flight.
func TestReadSettledChecksAtCompletion(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	far, near := m.AllocShared(1, 64), m.AllocShared(1, 64)
	flag := false
	var issued, done, stored sim.Time
	var got bool
	r.AddAt(0, func(ctx *Ctx) { // unit 0: far is remote
		ctx.Compute(10)
		issued = ctx.Now()
		got = ctx.ReadSettled(far, func() bool { return flag })
		done = ctx.Now()
	})
	r.AddAt(2, func(ctx *Ctx) { // unit 1: near is local
		ctx.Read(near)
		stored = ctx.Now()
		flag = true
	})
	r.Run()
	if !(issued < stored && stored < done) {
		t.Fatalf("fixture needs issue < store < completion; got %v, %v, %v", issued, stored, done)
	}
	if !got {
		t.Errorf("check at the read's completion (%v) missed the store at %v", done, stored)
	}
}

// readAs reads addr with ReadSettled on a check that already holds, or,
// without settled, with Read.
func readAs(ctx *Ctx, settled bool, addr uint64) {
	if settled {
		ctx.ReadSettled(addr, func() bool { return true })
	} else {
		ctx.Read(addr)
	}
}

// aheadRun runs one core that computes, reads shared memory, computes,
// optionally asks Now, and computes again. With settled set the read is a
// ReadSettled whose check already holds, so the program runs on past it.
func aheadRun(settled, callNow bool) (now, makespan sim.Time, events uint64) {
	m := newM()
	r := NewRunner(m)
	a := m.AllocShared(1, 64)
	r.AddAt(0, func(ctx *Ctx) {
		ctx.Compute(10)
		readAs(ctx, settled, a)
		ctx.Compute(5)
		if callNow {
			now = ctx.Now()
		}
		ctx.Compute(3)
	})
	makespan = r.Run()
	return now, makespan, m.Engine.Executed
}

// Now called while a read is queued plays the queue and returns the exact
// time, the one Now returns after Read, and adds no event.
func TestNowWhileAheadIsExact(t *testing.T) {
	wantNow, wantSpan, wantEvents := aheadRun(false, true)
	gotNow, gotSpan, gotEvents := aheadRun(true, true)
	_, _, quietEvents := aheadRun(true, false)
	if gotNow != wantNow || gotSpan != wantSpan {
		t.Errorf("Now %v, makespan %v; after Read: %v, %v", gotNow, gotSpan, wantNow, wantSpan)
	}
	if cyc := newM().CoreClock.Period; wantNow != wantSpan-3*cyc {
		t.Errorf("Now %v, want makespan %v less 3 cycles", wantNow, wantSpan)
	}
	if gotEvents != wantEvents || gotEvents != quietEvents {
		t.Errorf("executed %d events; %d after Read, %d without Now", gotEvents, wantEvents, quietEvents)
	}
}

// A queue that fills with reads pending is played like one of delays only:
// the flush adds no event, so every operation still costs one.
func TestFullQueueWithReadsAddsNoEvent(t *testing.T) {
	const reads = 3*maxQueued + 5
	run := func(settled bool) (sim.Time, uint64) {
		m := newM()
		r := NewRunner(m)
		a := m.AllocShared(1, 64)
		r.Add(func(ctx *Ctx) {
			for i := 0; i < reads; i++ {
				ctx.Compute(1)
				readAs(ctx, settled, a)
			}
		})
		return r.Run(), m.Engine.Executed
	}
	wantSpan, wantEvents := run(false)
	gotSpan, gotEvents := run(true)
	if gotEvents != 1+2*reads || gotEvents != wantEvents {
		t.Errorf("executed %d events, want %d (first step + one per operation) as after Read (%d)",
			gotEvents, 1+2*reads, wantEvents)
	}
	if gotSpan != wantSpan {
		t.Errorf("makespan %v, after Read %v", gotSpan, wantSpan)
	}
}
