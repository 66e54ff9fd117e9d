package sim

import "testing"

// The freelist recycles event slots aggressively, so the dangerous patterns
// are all about handles outliving their slot's occupant. These tests pin the
// generation-check contract: a stale Handle is always a no-op, never an alias
// of the slot's new event.

func TestCancelThenReschedule(t *testing.T) {
	e := NewEngine()
	ran := 0
	h := e.Schedule(10, func(Time) { t.Error("cancelled event ran") })
	e.Cancel(h)
	e.Schedule(10, func(Time) { ran++ })
	e.Cancel(h) // double-cancel of a dead event: no-op
	e.Run()
	if ran != 1 {
		t.Fatalf("replacement event ran %d times, want 1", ran)
	}
}

func TestCancelRecycledHandleIsNoOp(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(10, func(Time) {})
	e.Run() // first runs; its slot is recycled with a bumped generation
	ran := false
	second := e.Schedule(20, func(Time) { ran = true })
	if second.slot != first.slot {
		t.Fatalf("expected slot reuse (first=%d second=%d); freelist broken?",
			first.slot, second.slot)
	}
	if second.gen == first.gen {
		t.Fatal("recycled slot kept its generation; stale handles would alias")
	}
	e.Cancel(first) // stale: must not touch the slot's new occupant
	e.Run()
	if !ran {
		t.Fatal("cancelling a stale handle killed the slot's new event")
	}
}

func TestCancelledSlotRecycledHandleIsNoOp(t *testing.T) {
	e := NewEngine()
	// Cancelled (never run) events must also invalidate their handles once
	// the slot is recycled off the heap.
	h := e.Schedule(10, func(Time) {})
	e.Cancel(h)
	e.Run() // pops the dead entry and recycles the slot
	ran := false
	h2 := e.Schedule(30, func(Time) { ran = true })
	if h2.slot != h.slot {
		t.Fatalf("expected slot reuse (got %d, want %d)", h2.slot, h.slot)
	}
	e.Cancel(h) // stale
	e.Run()
	if !ran {
		t.Fatal("stale handle cancelled the recycled slot's event")
	}
}

// Interleaved compaction: cancelling past the compaction threshold frees dead
// slots while their handles are still held; new events immediately reuse
// those slots, and the old handles must stay no-ops.
func TestCancelRecycledAcrossCompaction(t *testing.T) {
	e := NewEngine()
	var stale []Handle
	for i := 0; i < 4*minCompactLen; i++ {
		stale = append(stale, e.Schedule(Time(100+i), func(Time) { t.Error("cancelled event ran") }))
	}
	for _, h := range stale {
		e.Cancel(h) // crosses the dead > len/2 threshold: compacts, recycles slots
	}
	// Compaction keeps the all-dead heap below the compaction floor.
	if p := e.Pending(); p > minCompactLen {
		t.Fatalf("compaction left %d dead entries pending (want <= %d)", p, minCompactLen)
	}
	ran := 0
	for i := 0; i < 2*minCompactLen; i++ {
		e.Schedule(Time(200+i), func(Time) { ran++ })
	}
	for _, h := range stale {
		e.Cancel(h) // all stale now; must not kill the reused slots
	}
	e.Run()
	if ran != 2*minCompactLen {
		t.Fatalf("ran %d live events, want %d (stale cancels aliased recycled slots)",
			ran, 2*minCompactLen)
	}
}

func TestCancelZeroHandleAndForeignHandle(t *testing.T) {
	e := NewEngine()
	e.Cancel(Handle{})                   // zero handle: no-op
	e.Cancel(Handle{slot: 1000, gen: 3}) // out-of-range slot: no-op
	ran := false
	e.Schedule(5, func(Time) { ran = true })
	e.Cancel(Handle{slot: 1, gen: 99}) // right slot, wrong generation: no-op
	e.Run()
	if !ran {
		t.Fatal("bogus handles affected a live event")
	}
}

// TestZeroDelayFastPathOrdering lives in engine_order_test.go (package
// sim_test) so it can share the simtest.CheckOrder invariant checker.

func TestZeroDelayCancel(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func(at Time) {
		h := e.Schedule(at, func(Time) { t.Error("cancelled zero-delay event ran") })
		e.Schedule(at, func(Time) { ran++ })
		e.Cancel(h)
	})
	e.Run()
	if ran != 1 {
		t.Fatalf("ran %d zero-delay events, want 1", ran)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after drain", e.Pending())
	}
}

// RunUntil must execute zero-delay events scheduled exactly at the deadline.
func TestRunUntilZeroDelayAtDeadline(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(100, func(at Time) {
		ran++
		e.Schedule(at, func(Time) { ran++ })
	})
	e.Schedule(101, func(Time) { t.Error("post-deadline event ran") })
	e.RunUntil(100)
	if ran != 2 {
		t.Fatalf("ran %d events at the deadline, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending, want the post-deadline one", e.Pending())
	}
}

// Steady-state Schedule/run must be allocation-free: slots come off the
// freelist, the heap and FIFO reuse their capacity, and dispatch allocates
// nothing. This is the contract the macro-benchmark (perfbench) and the CI
// perf gate are built on.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func(Time) {}
	// Warm up arena, freelist, heap, and FIFO capacity.
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+Time(i+1), nop)
	}
	e.Run()

	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, nop)
		e.Schedule(e.Now()+2, nop)
		e.Run()
	}); a != 0 {
		t.Errorf("steady-state Schedule/Run (heap path): %v allocs/op, want 0", a)
	}

	var chain func(Time)
	hops := 0
	chain = func(at Time) {
		if hops++; hops%8 != 0 {
			e.Schedule(at, chain) // zero-delay self-schedule (nowQ fast path)
		}
	}
	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, chain)
		e.Run()
	}); a != 0 {
		t.Errorf("steady-state zero-delay chain: %v allocs/op, want 0", a)
	}

	h := e.Schedule(e.Now()+10, nop)
	e.Cancel(h)
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		h := e.Schedule(e.Now()+10, nop)
		e.Cancel(h)
		e.Schedule(e.Now()+1, nop)
		e.Run()
	}); a != 0 {
		t.Errorf("steady-state cancel/reschedule: %v allocs/op, want 0", a)
	}
}
