package program

import (
	"testing"

	"syncron/internal/arch"
)

// BenchmarkProgramOps measures the per-operation cost of a compute-only
// program: each Compute is queued inside the coroutine and played as one
// chained engine event, with one coroutine handoff per full delay queue. The
// CI perf gate tracks it alongside the raw engine benchmarks: a regression
// here that doesn't show in BenchmarkEngine* points at the delay queue and
// its event chain, not the event queue.
func BenchmarkProgramOps(b *testing.B) {
	const opsPerRun = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
		m.Backend = &instantBackend{}
		r := NewRunner(m)
		for c := 0; c < m.NumCores(); c++ {
			r.Add(func(ctx *Ctx) {
				for k := 0; k < opsPerRun/4; k++ {
					ctx.Compute(10)
				}
			})
		}
		r.Run()
	}
	b.ReportMetric(float64(opsPerRun), "ops/run")
}

// BenchmarkProgramSyncOps measures the sync-request round trip through a
// minimal backend (request, grant callback, zero-delay resume).
func BenchmarkProgramSyncOps(b *testing.B) {
	const roundsPerCore = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
		m.Backend = &instantBackend{}
		r := NewRunner(m)
		lock := m.Alloc(0, 64)
		for c := 0; c < m.NumCores(); c++ {
			r.Add(func(ctx *Ctx) {
				for k := 0; k < roundsPerCore; k++ {
					ctx.Lock(lock)
					ctx.Unlock(lock)
				}
			})
		}
		r.Run()
	}
}

// BenchmarkProgramRunAhead is BenchmarkProgramSyncOps with each program
// calling RunAhead: its sync ops are queued and issued by the core's events,
// so the program hands off only when its queue fills. The engine work is
// that of BenchmarkProgramSyncOps; the difference between the two is the
// handoffs saved.
func BenchmarkProgramRunAhead(b *testing.B) {
	const roundsPerCore = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
		m.Backend = &instantBackend{}
		r := NewRunner(m)
		lock := m.Alloc(0, 64)
		for c := 0; c < m.NumCores(); c++ {
			r.Add(func(ctx *Ctx) {
				ctx.RunAhead()
				for k := 0; k < roundsPerCore; k++ {
					ctx.Lock(lock)
					ctx.Unlock(lock)
				}
			})
		}
		r.Run()
	}
}

// BenchmarkProgramMemOps measures the per-operation cost of the memory path:
// each core alternates a read of a line it keeps resident in its L1 (a hit,
// served inside the coroutine and played as one chained event) with a read
// of uncacheable shared memory (a miss that the program yields on, which
// crosses the network and the memory model), so both halves of CoreAccess
// are on the path.
func BenchmarkProgramMemOps(b *testing.B) {
	const opsPerRun = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
		m.Backend = &instantBackend{}
		r := NewRunner(m)
		for c := 0; c < m.NumCores(); c++ {
			hot := m.Alloc(m.UnitOf(c), 64)
			shared := m.AllocShared(c%m.Cfg.Units, 64)
			r.Add(func(ctx *Ctx) {
				for k := 0; k < opsPerRun/8; k++ {
					ctx.Read(hot)
					ctx.Read(shared)
				}
			})
		}
		r.Run()
	}
	b.ReportMetric(float64(opsPerRun), "ops/run")
}

// BenchmarkProgramSettledReads is BenchmarkProgramMemOps with the shared
// read written as ReadSettled on a check that already holds: the read is
// queued and played as a chained event like the hit, so the program runs
// without a coroutine handoff until its queue fills. The engine work is
// that of BenchmarkProgramMemOps; the difference between the two is the
// handoffs saved.
func BenchmarkProgramSettledReads(b *testing.B) {
	const opsPerRun = 4096
	settled := func() bool { return true }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
		m.Backend = &instantBackend{}
		r := NewRunner(m)
		for c := 0; c < m.NumCores(); c++ {
			hot := m.Alloc(m.UnitOf(c), 64)
			shared := m.AllocShared(c%m.Cfg.Units, 64)
			r.Add(func(ctx *Ctx) {
				for k := 0; k < opsPerRun/8; k++ {
					ctx.Read(hot)
					ctx.ReadSettled(shared, settled)
				}
			})
		}
		r.Run()
	}
	b.ReportMetric(float64(opsPerRun), "ops/run")
}

// BenchmarkProgramScanReads measures a scan of shared reads whose check
// never holds, the shape of cc's and sssp's neighbor loops: each element is
// a Compute and an uncacheable read, and the core's events run the elements
// and their checks without a coroutine handoff, so a core's whole scan costs
// one. The engine work is that of the same loop written with Compute, Read
// and the check, which hands off at every read.
func BenchmarkProgramScanReads(b *testing.B) {
	const opsPerRun = 4096
	never := func(int) bool { return false }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
		m.Backend = &instantBackend{}
		r := NewRunner(m)
		for c := 0; c < m.NumCores(); c++ {
			shared := m.AllocShared(c%m.Cfg.Units, 64)
			addr := func(int) uint64 { return shared }
			r.Add(func(ctx *Ctx) {
				ctx.ScanReads(0, opsPerRun/8, 1, addr, never)
			})
		}
		r.Run()
	}
	b.ReportMetric(float64(opsPerRun), "ops/run")
}
