package program

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/sim"
	"syncron/internal/trace"
)

// syncRun is what one run shows of the simulation, plus the shared host
// state its programs read (seen).
type syncRun struct {
	events   uint64
	makespan sim.Time
	stats    []Stats
	trace    []byte
	seen     []int
}

// runSync runs the program body builds on every core of a two-unit, two
// cores per unit machine under SynCron. With ahead set, each program calls
// RunAhead first. body gets a fresh machine and a log for the shared state
// its programs read.
func runSync(ahead bool, body func(m *arch.Machine, seen *[]int) Program) syncRun {
	col := trace.NewCollector()
	m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2, Tracer: col})
	m.Backend = core.NewSynCron()
	r := NewRunner(m)
	var out syncRun
	prog := body(m, &out.seen)
	r.AddN(m.NumCores(), func(int) Program {
		return func(ctx *Ctx) {
			if ahead {
				ctx.RunAhead()
			}
			prog(ctx)
		}
	})
	out.makespan = r.Run()
	out.stats = r.Stats()
	m.FlushTrace()
	out.events = m.Engine.Executed
	var csv bytes.Buffer
	if err := col.WriteCSV(&csv); err != nil {
		panic(err)
	}
	out.trace = csv.Bytes()
	return out
}

// RunAhead changes when program code runs on the host, not what the
// simulation does: each program below runs the same events, in the same
// order, with the same timing, counters and trace with and without it, and
// code that catches up with its core (Now) before reading shared state
// reads the same values.
func TestRunAheadMatchesLockstep(t *testing.T) {
	cases := []struct {
		name string
		body func(m *arch.Machine, seen *[]int) Program
	}{
		{"lock unlock compute", func(m *arch.Machine, _ *[]int) Program {
			lock := m.Alloc(1, 64)
			return func(ctx *Ctx) {
				for k := 0; k < 40; k++ {
					ctx.Lock(lock)
					ctx.Compute(int64(k%5 + 1))
					ctx.Unlock(lock)
					ctx.Compute(int64(10 + 3*ctx.ID))
				}
			}
		}},
		{"barriers and semaphores", func(m *arch.Machine, _ *[]int) Program {
			across, within, sem := m.Alloc(0, 64), m.Alloc(1, 64), m.Alloc(1, 64)
			return func(ctx *Ctx) {
				for k := 0; k < 20; k++ {
					ctx.Compute(int64(7*ctx.ID + k))
					ctx.BarrierAcrossUnits(across, 4)
					ctx.BarrierWithinUnit(within+uint64(ctx.Unit)*64, 2)
					if ctx.ID%2 == 0 {
						ctx.SemWait(sem, 0)
					} else {
						ctx.SemPost(sem)
					}
				}
			}
		}},
		{"Now before shared state", func(m *arch.Machine, seen *[]int) Program {
			// The ubench condition-variable pattern: a token count that each
			// side touches only under the lock, after catching up.
			lock, cond := m.Alloc(0, 64), m.Alloc(1, 64)
			tokens := 0
			return func(ctx *Ctx) {
				for k := 0; k < 15; k++ {
					ctx.Lock(lock)
					ctx.Now()
					if ctx.ID%2 == 0 {
						for tokens == 0 {
							ctx.CondWait(cond, lock)
							ctx.Now()
						}
						tokens--
					} else {
						tokens++
						ctx.CondSignal(cond, lock)
					}
					*seen = append(*seen, 100*ctx.ID+tokens)
					ctx.Unlock(lock)
					ctx.Compute(int64(5 + ctx.ID))
				}
			}
		}},
		{"queue full of sync ops", func(m *arch.Machine, _ *[]int) Program {
			lock := m.Alloc(0, 64)
			return func(ctx *Ctx) {
				for k := 0; k < 2*maxQueued+3; k++ {
					ctx.Lock(lock)
					ctx.Unlock(lock)
				}
			}
		}},
		{"ends with sync ops queued", func(m *arch.Machine, _ *[]int) Program {
			lock, bar := m.Alloc(0, 64), m.Alloc(1, 64)
			return func(ctx *Ctx) {
				ctx.Compute(int64(20 * ctx.ID))
				ctx.Lock(lock)
				ctx.Unlock(lock)
				ctx.BarrierAcrossUnits(bar, 4)
				ctx.FetchAdd(bar+64, 1)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, got := runSync(false, tc.body), runSync(true, tc.body)
			if got.events != want.events {
				t.Errorf("executed %d events, without RunAhead %d", got.events, want.events)
			}
			if got.makespan != want.makespan {
				t.Errorf("makespan %v, without RunAhead %v", got.makespan, want.makespan)
			}
			if !slices.Equal(got.stats, want.stats) {
				t.Errorf("per-core stats %+v, without RunAhead %+v", got.stats, want.stats)
			}
			if !slices.Equal(got.seen, want.seen) {
				t.Errorf("shared state read %v, without RunAhead %v", got.seen, want.seen)
			}
			if len(want.trace) < 500 || !bytes.Equal(got.trace, want.trace) {
				t.Errorf("trace CSVs differ or are nearly empty: %d vs %d bytes", len(got.trace), len(want.trace))
			}
		})
	}
}

// After RunAhead the program's Go code does run ahead: it reaches its end
// in its core's first event, before the engine has run any event of its sync
// ops.
func TestRunAheadRunsAhead(t *testing.T) {
	atEnd := func(ahead bool) uint64 {
		m := newM()
		r := NewRunner(m)
		lock := m.Alloc(0, 64)
		var executed uint64
		r.Add(func(ctx *Ctx) {
			if ahead {
				ctx.RunAhead()
			}
			for k := 0; k < 10; k++ {
				ctx.Lock(lock)
				ctx.Unlock(lock)
			}
			executed = m.Engine.Executed
		})
		r.Run()
		return executed
	}
	if got, lockstep := atEnd(true), atEnd(false); got != 1 || lockstep < 20 {
		t.Errorf("program ended in event %d with RunAhead, %d without; want 1 and at least 20",
			got, lockstep)
	}
}

// A queued acquire that is never granted leaves its core blocked, and the
// deadlock report names the op it waits on, as for a yielded one.
func TestRunAheadDeadlockNamesQueuedOp(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	lock := m.Alloc(0, 64)
	r.Add(func(ctx *Ctx) {
		ctx.RunAhead()
		ctx.Lock(lock)
		ctx.Compute(10)
		ctx.Lock(lock) // never granted: the core holds it
		ctx.Compute(10)
	})
	v := runRecover(r)
	msg, _ := v.(string)
	if want := fmt.Sprintf("core 0 on lock_acquire %#x", lock); !strings.Contains(msg, "deadlock") ||
		!strings.Contains(msg, want) {
		t.Fatalf("Run panicked with %#v, want a deadlock report naming %q", v, want)
	}
}

// A sync op's queue entry carries its op and its Info in the words
// every entry has, so queuing sync ops does not grow the core's queue.
func TestQueueEntryIsThreeWords(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 24 {
		t.Fatalf("queue entry is %d bytes, want 24", size)
	}
	for _, req := range []arch.SyncReq{
		{Op: arch.OpBarrierAcrossUnits, Addr: 0x40, Info: 60},
		{Op: arch.OpCondWait, Addr: 0x80, Info: 0xc0},
		{Op: arch.OpFetchAdd, Addr: 0x100, Info: 1 << 63},
	} {
		e := syncEntry(req)
		if got := e.req(); got != req {
			t.Errorf("queued %+v, issued %+v", req, got)
		}
	}
}
