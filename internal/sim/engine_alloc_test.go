package sim

import "testing"

// Steady-state Schedule/run must be allocation-free: the timing wheel takes
// its nodes from a reusable pool, the overflow heap stores events by value
// and reuses its capacity, and dispatch allocates nothing. This is the
// contract the macro-benchmark (perfbench) and the CI perf gate are built on.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func(Time) {}
	// Warm up the node pool.
	for i := 0; i < 64; i++ {
		e.Schedule(e.Now()+Time(i+1), nop)
	}
	e.Run()

	if a := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, nop)
		e.Schedule(e.Now()+2, nop)
		e.Run()
	}); a != 0 {
		t.Errorf("steady-state Schedule/Run (wheel path): %v allocs/op, want 0", a)
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

	// Far-future events wait in the overflow heap and move back into the
	// wheel as the cursor reaches them; 2^24–2^30 ps is the reach of the
	// semaphore runs' scheduling deltas. Warm up the heap's capacity and
	// the pool first.
	far := func() {
		for i := Time(0); i < 8; i++ {
			e.Schedule(e.Now()+1<<24+i<<22, nop)
			e.Schedule(e.Now()+1<<30-i, nop)
		}
		e.Run()
	}
	far()
	if a := testing.AllocsPerRun(1000, far); a != 0 {
		t.Errorf("steady-state far-future Schedule/Run (overflow path): %v allocs/op, want 0", a)
	}
}
