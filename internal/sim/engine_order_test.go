package sim_test

import (
	"testing"

	"syncron/internal/sim"
	"syncron/internal/sim/simtest"
)

// These tests pin the engine's dispatch-order contract — global (at, seq)
// order — through the shared simtest.CheckOrder invariant checker, across the
// scenarios that historically threatened it: compaction shuffling the heap,
// and the same-timestamp FIFO fast path interleaving with heap events. The
// engine fuzz target (fuzz_test.go) reuses the same checker, so every test
// holds the engine to one definition of "in order".

// Compaction must preserve deterministic (at, seq) execution order across a
// mix of cancels and survivors.
func TestEngineCompactionPreservesOrder(t *testing.T) {
	e := sim.NewEngine()
	var rec simtest.Recorder
	var cancelled []sim.Handle
	for i := 0; i < 500; i++ {
		i := i
		ev := e.Schedule(sim.Time(1000-i%7), func(at sim.Time) { rec.Observe(at, uint64(i)) })
		if i%3 != 0 {
			cancelled = append(cancelled, ev)
		}
	}
	for _, ev := range cancelled {
		e.Cancel(ev)
	}
	e.Run()
	want := 0
	for i := 0; i < 500; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if len(rec.Events) != want {
		t.Fatalf("ran %d events, want %d", len(rec.Events), want)
	}
	// Survivors must run grouped by 1000-i%7 ascending and in schedule order
	// within one timestamp.
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
