package sim

import "testing"

// The engine benchmarks cover the hot shapes model code produces:
// schedule-then-dispatch within the timing wheel, zero-delay
// self-scheduling, a deep resident queue, the shallow near-future queue of
// the figure grids, and a deep far-future queue that lives in the overflow
// heap. All must report 0 allocs/op in steady state
// (TestEngineSteadyStateAllocFree pins that as a hard test); the CI perf gate
// compares the ns/op of those it lists against the PR base. The names predate
// the wheel and stay, because the gate's pattern matches on them.

// BenchmarkEngineScheduleRun is the canonical schedule+dispatch cycle: one
// future event through the wheel per iteration.
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

// BenchmarkEngineZeroDelayChain times a zero-delay event through the wheel's
// current slot: each event self-schedules at the current time, the pattern
// the program layer's launch and grant handoffs produce.
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

// BenchmarkEngineHeapChurn keeps a deep queue resident (1024 pending events,
// 1024 ps apart), each rescheduling itself behind the others. It once paid
// full-depth heap sifts; in the wheel every schedule is an append.
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

// BenchmarkEngineNearFuture has the queue shape of the figures-quick grid:
// 60 resident events, one per simulated core, each rescheduling itself a
// short seeded delay ahead. One delay in eight is under 128 ps, so about 11%
// of schedules become the new earliest event, the share measured on that
// grid.
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

// BenchmarkEngineFarFuture has the queue shape of sync-contended's semaphore
// runs: about 32k resident events (their mean depth is 7.9k–10.5k and the
// maximum 35k–41k), each rescheduling itself a seeded 2^24–2^30 ps ahead, so
// nearly every event waits in the overflow heap and later moves into the
// wheel.
func BenchmarkEngineFarFuture(b *testing.B) {
	const resident = 32 << 10
	rng := NewRNG(1)
	var delays [1024]Time
	for i := range delays {
		delays[i] = Time(1<<24 + rng.Intn(1<<30-1<<24))
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
		e.Schedule(delays[i%len(delays)]+Time(i), self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
