package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"syncron/internal/sim"
	"syncron/internal/sim/simtest"
)

// fuzzUnit is the per-unit state of the fuzz interpreter: one chain of
// events reading its own slice of the fuzz input.
type fuzzUnit struct {
	id      int
	stream  []byte // this unit's private slice of the fuzz input
	pos     int
	ran     uint64 // per-unit execution counter, folded into the log
	log     strings.Builder
	handles []sim.Handle
}

// runFuzzProgram interprets data as a deterministic schedule/cancel program:
// byte 0 picks the unit count, the rest is split round-robin into private
// per-unit instruction streams. Each unit runs a chain of events, one
// instruction per event — scheduling same-unit leaves (future and
// zero-delay), cross-unit leaves, barrier events, and cancels of previously
// recorded handles. It returns a fingerprint of every observable — per-unit
// execution logs, the barrier log, the end time — plus the executed-event
// count, and records the global execution order into rec for
// simtest.CheckOrder.
func runFuzzProgram(data []byte, rec *simtest.Recorder) (string, uint64) {
	e := sim.NewEngine()
	e.MaxEvents = 1 << 20 // diagnose a runaway interpreter instead of hanging
	nUnits := 1 + int(data[0])%6
	units := make([]*fuzzUnit, nUnits)
	for i := range units {
		units[i] = &fuzzUnit{id: i}
	}
	for i, b := range data[1:] {
		u := units[i%nUnits]
		u.stream = append(u.stream, b)
	}

	var barrierLog strings.Builder
	var schedID uint64
	// nextSched assigns the schedule-order ids CheckOrder compares.
	nextSched := func() uint64 {
		schedID++
		return schedID
	}
	observe := func(u *fuzzUnit, at sim.Time, id uint64) {
		u.ran++
		fmt.Fprintf(&u.log, "%d@%d ", u.ran, int64(at))
		rec.Observe(at, id)
	}
	leaf := func(u *fuzzUnit) func(sim.Time) {
		id := nextSched()
		return func(at sim.Time) { observe(u, at, id) }
	}
	var step func(u *fuzzUnit) func(sim.Time)
	step = func(u *fuzzUnit) func(sim.Time) {
		id := nextSched()
		return func(at sim.Time) {
			observe(u, at, id)
			if u.pos >= len(u.stream) {
				return // stream dry: this unit's chain ends
			}
			c := u.stream[u.pos]
			u.pos++
			arg := int(c >> 3)
			switch c % 8 {
			case 0, 1: // same-unit future leaf
				h := e.Schedule(at+sim.Time(1+arg%5), leaf(u))
				u.handles = append(u.handles, h)
			case 2: // same-unit zero-delay leaf
				u.handles = append(u.handles, e.Schedule(at, leaf(u)))
			case 3: // cross-unit leaf, delay 0..3
				v := units[(u.id+1+arg)%nUnits]
				h := e.Schedule(at+sim.Time(arg%4), leaf(v))
				u.handles = append(u.handles, h)
			case 4: // barrier event
				bid := nextSched()
				e.Schedule(at+sim.Time(1+arg%3), func(bat sim.Time) {
					rec.Observe(bat, bid)
					fmt.Fprintf(&barrierLog, "b@%d ", int64(bat))
				})
			case 5: // cancel the oldest recorded handle
				if len(u.handles) > 0 {
					e.Cancel(u.handles[0])
					u.handles = u.handles[1:]
				}
			case 6: // schedule-then-cancel
				e.Cancel(e.Schedule(at+1, leaf(u)))
			default: // 7: nop
			}
			e.Schedule(at+1, step(u))
		}
	}

	for i, u := range units {
		e.Schedule(sim.Time(1+i), step(u))
	}
	end := e.Run()

	var fp strings.Builder
	for _, u := range units {
		fmt.Fprintf(&fp, "[u%d %s] ", u.id, u.log.String())
	}
	fmt.Fprintf(&fp, "| %s | end=%d", barrierLog.String(), int64(end))
	return fp.String(), e.Executed
}

// FuzzEngineScheduleCancel feeds random schedule/cancel programs through the
// engine and requires global (at, seq) execution order, plus an identical
// fingerprint and executed-event count when the same program runs again.
func FuzzEngineScheduleCancel(f *testing.F) {
	f.Add([]byte{3, 0, 8, 16, 24, 32, 40, 48, 5, 13, 21, 29, 37, 45, 53, 61})
	f.Add([]byte{1, 2, 2, 2, 5, 5, 6, 4})
	f.Add([]byte{5, 3, 11, 19, 27, 35, 43, 51, 59, 4, 12, 20, 5, 5, 5})
	f.Add([]byte{0})
	f.Add([]byte{2, 6, 6, 6, 2, 2, 5, 5, 4, 4, 3, 3, 3, 7, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			t.Skip()
		}
		rec := &simtest.Recorder{}
		fp, exec := runFuzzProgram(data, rec)
		rec.Check(t)
		if got := uint64(len(rec.Events)); got != exec {
			t.Fatalf("recorded %d executions, engine counted %d", got, exec)
		}
		again, execAgain := runFuzzProgram(data, &simtest.Recorder{})
		if again != fp {
			t.Fatalf("re-run fingerprint diverges\nfirst:  %s\nsecond: %s", fp, again)
		}
		if execAgain != exec {
			t.Fatalf("re-run executed %d events, first run %d", execAgain, exec)
		}
	})
}
