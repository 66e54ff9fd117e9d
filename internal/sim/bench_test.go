package sim

import "testing"

// The engine benchmarks cover the three hot shapes model code produces:
// schedule-then-pop through the heap, zero-delay self-scheduling through the
// same-timestamp FIFO, a deep resident queue, and the shallow near-future
// queue of the figure grids. All must report
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

// BenchmarkEngineNearFuture has the heap shape of the figures-quick grid:
// 60 resident events, one per simulated core, each rescheduling itself a
// short seeded delay ahead. One delay in eight is under 128 ps, so about 11%
// of pushes become the new heap minimum, the share measured on that grid.
func BenchmarkEngineNearFuture(b *testing.B) {
	const resident = 60
	rng := NewRNG(1)
	var delays [1024]Time
	for i := range delays {
		if rng.Intn(8) == 0 {
			delays[i] = Time(1 + rng.Intn(1<<7))
		} else {
			delays[i] = Time(1 + rng.Intn(1<<16))
		}
	}
	e := NewEngine()
	count := 0
	var self func(Time)
	self = func(at Time) {
		if count++; count < b.N {
			e.Schedule(at+delays[count%len(delays)], self)
		}
	}
	for i := 0; i < resident && i < b.N; i++ {
		e.Schedule(Time(i+1), self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
