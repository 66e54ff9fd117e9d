// Package simtest provides shared invariant checkers for tests of the event
// engine and code layered on it. The central invariant of internal/sim is
// that events execute in global (at, seq) order — timestamps never go
// backwards, and events sharing a timestamp run in schedule order.
package simtest

import (
	"testing"

	"syncron/internal/sim"
)

// Event is one observed execution: the timestamp the callback ran at and the
// observer-assigned schedule order (any value that is strictly increasing in
// the order events were scheduled; engine-internal seq numbers are not
// exposed, and tests don't need them).
type Event struct {
	At  sim.Time
	Seq uint64
}

// CheckOrder fails tb unless events is in strict global (at, seq) order:
// At non-decreasing throughout, and Seq strictly increasing within each run
// of equal At. This is the engine's dispatch-order contract; recording the
// execution order of scheduled events and handing it to CheckOrder proves
// the run respected it.
func CheckOrder(tb testing.TB, events []Event) {
	tb.Helper()
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if cur.At < prev.At {
			tb.Fatalf("event %d ran at t=%v after event %d at t=%v: time went backwards",
				i, cur.At, i-1, prev.At)
		}
		if cur.At == prev.At && cur.Seq <= prev.Seq {
			tb.Fatalf("events %d (seq %d) and %d (seq %d) share t=%v but ran out of schedule order",
				i-1, prev.Seq, i, cur.Seq, cur.At)
		}
	}
}

// Recorder accumulates executed events for a later CheckOrder. It is not
// safe for concurrent use.
type Recorder struct {
	Events []Event
}

// Observe appends one execution.
func (r *Recorder) Observe(at sim.Time, seq uint64) {
	r.Events = append(r.Events, Event{At: at, Seq: seq})
}

// Check asserts the recorded order; see CheckOrder.
func (r *Recorder) Check(tb testing.TB) {
	tb.Helper()
	CheckOrder(tb, r.Events)
}
