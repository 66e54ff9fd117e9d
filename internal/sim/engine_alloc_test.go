package sim

import "testing"

// Steady-state Schedule/run must be allocation-free: the heap stores events
// by value and reuses its capacity, and dispatch allocates nothing.
// This is the contract the macro-benchmark (perfbench) and the CI perf gate
// are built on.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func(Time) {}
	// Warm up heap capacity.
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
			e.Schedule(at, chain) // zero-delay self-schedule
		}
	}
	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, chain)
		e.Run()
	}); a != 0 {
		t.Errorf("steady-state zero-delay chain: %v allocs/op, want 0", a)
	}
}
