package sim_test

import (
	"testing"

	"syncron/internal/sim"
	"syncron/internal/sim/simtest"
)

// These tests pin the engine's dispatch-order contract — global (at, seq)
// order — through the shared simtest.CheckOrder invariant checker, across the
// scenarios that threaten it: many events sharing timestamps inside the heap,
// and the same-timestamp FIFO fast path interleaving with heap events. The
// engine fuzz target (fuzz_test.go) reuses the same checker, so every test
// holds the engine to one definition of "in order".

// Events scheduled out of timestamp order, many sharing a timestamp, must run
// grouped by timestamp ascending and in schedule order within one timestamp.
func TestEngineMixedTimestampOrder(t *testing.T) {
	e := sim.NewEngine()
	var rec simtest.Recorder
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(sim.Time(1000-i%7), func(at sim.Time) { rec.Observe(at, uint64(i)) })
	}
	e.Run()
	if len(rec.Events) != n {
		t.Fatalf("ran %d events, want %d", len(rec.Events), n)
	}
	rec.Check(t)
}

// Zero-delay events (the nowQ fast path) must interleave with heap events at
// the same timestamp in global (at, seq) order.
func TestZeroDelayFastPathOrdering(t *testing.T) {
	e := sim.NewEngine()
	var rec simtest.Recorder
	obs := func(seq uint64) func(sim.Time) {
		return func(at sim.Time) { rec.Observe(at, seq) }
	}
	e.Schedule(10, func(at sim.Time) {
		rec.Observe(at, 1)
		// Zero-delay self-schedules: must run after every event already
		// queued at t=10, in scheduling order.
		e.Schedule(10, obs(4))
		e.Schedule(10, func(at sim.Time) {
			rec.Observe(at, 5)
			e.Schedule(10, obs(6))
		})
	})
	e.Schedule(10, obs(2))
	e.Schedule(10, obs(3))
	e.Schedule(20, obs(7))
	e.Run()
	if len(rec.Events) != 7 {
		t.Fatalf("ran %d events, want 7: %v", len(rec.Events), rec.Events)
	}
	// The observer seqs are the schedule order, so CheckOrder proves the
	// exact serial interleaving 1..6 at t=10 then 7 at t=20.
	rec.Check(t)
}
