package sim

import "testing"

// The engine benchmarks cover the three hot shapes model code produces:
// schedule-then-pop through the heap, zero-delay self-scheduling through the
// same-timestamp FIFO, and a deep resident queue. All must report
// 0 allocs/op in steady state (TestEngineSteadyStateAllocFree pins that as a
// hard test); the CI perf gate compares their ns/op against the PR base.

// BenchmarkEngineScheduleRun is the canonical schedule+dispatch cycle: one
// future event through the heap per iteration.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	nop := func(Time) {}
	e.Schedule(1, nop)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, nop)
		e.Run()
	}
}

// BenchmarkEngineZeroDelayChain measures the same-timestamp fast path: each
// event self-schedules at the current time, the pattern the program layer's
// launch and grant handoffs produce.
func BenchmarkEngineZeroDelayChain(b *testing.B) {
	e := NewEngine()
	left := 0
	var chain func(Time)
	chain = func(at Time) {
		if left--; left > 0 {
			e.Schedule(at, chain)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	e.Schedule(e.Now()+1, chain)
	e.Run()
}

// BenchmarkEngineHeapChurn keeps a deep queue resident (1024 pending events)
// so every schedule and pop pays full-depth sift costs.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine()
	const depth = 1024
	count := 0
	var self func(Time)
	self = func(at Time) {
		if count++; count < b.N {
			e.Schedule(at+depth, self)
		}
	}
	for i := 0; i < depth && i < b.N; i++ {
		e.Schedule(Time(i+1), self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
