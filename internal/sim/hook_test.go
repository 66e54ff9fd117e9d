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
// same-timestamp batch. The far event waits in the overflow heap, so pending
// counts both the timing wheel and the heap.
func TestHookFiresOncePerTimestamp(t *testing.T) {
	e := NewEngine()
	h := &recordingHook{}
	e.SetHook(h)

	// Three events at t=10 (one scheduling a same-timestamp follow-up during
	// dispatch), one at t=20, and one far past the wheel's window.
	const far = 1 << 30
	e.Schedule(10, func(at Time) { e.Schedule(at, func(Time) {}) })
	e.Schedule(10, func(Time) {})
	e.Schedule(10, func(Time) {})
	e.Schedule(20, func(Time) {})
	e.Schedule(far, func(Time) {})
	if len(e.heap) != 1 {
		t.Fatalf("overflow heap holds %d events, want the far one", len(e.heap))
	}
	e.Run()

	want := []advanceSample{
		{prev: 0, now: 10, pending: 5, executed: 0},
		{prev: 10, now: 20, pending: 2, executed: 4},
		{prev: 20, now: far, pending: 1, executed: 5},
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

	run(64) // warm up the heap

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
