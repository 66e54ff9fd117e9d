package sim

import (
	"runtime"
	"testing"
)

// recordingHook captures every OnAdvance call.
type recordingHook struct {
	advances []advanceSample
}

type advanceSample struct {
	prev, now Time
	pending   int
	executed  uint64
}

func (h *recordingHook) OnAdvance(prev, now Time, pending int, executed uint64) {
	h.advances = append(h.advances, advanceSample{prev, now, pending, executed})
}

// The hook must fire exactly once per distinct timestamp, before anything at
// that timestamp is dequeued, so the reported queue depth covers the full
// same-timestamp batch.
func TestHookFiresOncePerTimestamp(t *testing.T) {
	e := NewEngine()
	h := &recordingHook{}
	e.SetHook(h)

	// Three events at t=10 (one scheduling a same-timestamp follow-up during
	// dispatch), one at t=20.
	e.Schedule(10, func(at Time) { e.Schedule(at, func(Time) {}) })
	e.Schedule(10, func(Time) {})
	e.Schedule(10, func(Time) {})
	e.Schedule(20, func(Time) {})
	e.Run()

	want := []advanceSample{
		{prev: 0, now: 10, pending: 4, executed: 0},
		{prev: 10, now: 20, pending: 1, executed: 4},
	}
	if len(h.advances) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %+v", len(h.advances), len(want), h.advances)
	}
	for i, g := range h.advances {
		if g != want[i] {
			t.Errorf("advance %d: got %+v, want %+v", i, g, want[i])
		}
	}
}

// With no hook attached (the tracing layer's nil-tracer default), steady-state
// dispatch must stay allocation-free: the disabled path is one nil check in
// the dispatch loop. This pins the tracing layer's zero-overhead contract at
// the engine level; CI runs it alongside the trace-determinism job.
func TestEngineSteadyStateAllocFreeTracerNil(t *testing.T) {
	e := NewEngine()
	const rounds = 5000
	left := 0
	var chain func(Time)
	chain = func(at Time) {
		if left--; left > 0 {
			e.Schedule(at+1, chain)
		}
	}
	run := func(n int) {
		left = n
		e.Schedule(e.Now()+1, chain)
		e.Run()
	}

	run(64) // warm up the slot arena and heap

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(rounds)
	runtime.ReadMemStats(&after)

	allocs := after.Mallocs - before.Mallocs
	// Zero allocations expected; a tiny budget absorbs runtime noise
	// (finalizers, background sweeps) without letting a real per-event
	// allocation through (rounds events would dwarf it).
	const budget = 10
	if allocs > budget {
		t.Errorf("tracer-nil steady state: %d allocs over %d events (%.4f/event), want 0 (budget %d total)",
			allocs, rounds, float64(allocs)/float64(rounds), budget)
	}
}
