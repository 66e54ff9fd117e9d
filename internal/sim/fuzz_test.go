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
	id     int
	stream []byte // this unit's private slice of the fuzz input
	pos    int
	ran    uint64 // per-unit execution counter, folded into the log
	log    strings.Builder
}

// delayShifts scale the interpreter's delays so that a program reaches every
// part of the engine's queue: the same 512 ps wheel slot (shift 0), the next
// slots (9, 13), far enough round the 1024-slot wheel to wrap past its
// physical end (17), just past its 2^19 ps window (19, 22), and deep in the
// overflow heap (29: up to 3·2^29 ps).
var delayShifts = [8]uint{0, 0, 9, 13, 17, 19, 22, 29}

// scaled is the delay an instruction argument encodes: arg%4 times the shift
// picked by arg/4 (arg is a 5-bit field). A zero base stays a zero delay.
func scaled(arg int) sim.Time {
	return sim.Time(arg%4) << delayShifts[arg/4%8]
}

// runFuzzProgram interprets data as a deterministic schedule program: byte 0
// picks the unit count, the rest is split round-robin into private per-unit
// instruction streams. Each unit runs a chain of events, one instruction per
// event — scheduling same-unit leaves (future, zero-delay, and tied with the
// unit's next step), cross-unit leaves (delayed and zero-delay), and barrier
// events, or moving its own chain far ahead. Delays reach across wheel
// slots, past the wheel's window and into the overflow heap (delayShifts).
// It returns a fingerprint of every observable — per-unit execution logs,
// the barrier log, the end time — plus the executed-event count, and records
// the global execution order into rec for simtest.CheckOrder.
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
			next := sim.Time(1)
			switch c % 8 {
			case 0, 1: // same-unit future leaf
				e.Schedule(at+1+scaled(arg), leaf(u))
			case 2: // same-unit zero-delay leaf
				e.Schedule(at, leaf(u))
			case 3: // cross-unit leaf, possibly zero-delay
				e.Schedule(at+scaled(arg), leaf(units[(u.id+1+arg)%nUnits]))
			case 4: // barrier event
				bid := nextSched()
				e.Schedule(at+1+scaled(arg), func(bat sim.Time) {
					rec.Observe(bat, bid)
					fmt.Fprintf(&barrierLog, "b@%d ", int64(bat))
				})
			case 5: // cross-unit zero-delay leaf
				e.Schedule(at, leaf(units[(u.id+1+arg)%nUnits]))
			case 6: // leaf tied on at+1 with the next step, ordered by seq
				e.Schedule(at+1, leaf(u))
			default: // 7: the next step runs far ahead
				next += scaled(arg)
			}
			e.Schedule(at+next, step(u))
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

// FuzzEngineSchedule feeds random schedule programs through the engine and
// requires global (at, seq) execution order, plus an identical fingerprint
// and executed-event count when the same program runs again.
func FuzzEngineSchedule(f *testing.F) {
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
