package core_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/program"
)

// BenchmarkCoordinator measures the protocol layer under each
// message-passing scheme on a 2-unit, 8-core machine: a contended lock, an
// across-unit barrier of every core (the two-level scheme under hier), and
// a semaphore homed in the other unit. One op is one whole run.
func BenchmarkCoordinator(b *testing.B) {
	const rounds = 64
	workloads := []struct {
		name string
		prog func(m *arch.Machine) program.Program
	}{
		{"lock", func(m *arch.Machine) program.Program {
			lock := m.Alloc(0, 64)
			return func(ctx *program.Ctx) {
				for k := 0; k < rounds; k++ {
					ctx.Lock(lock)
					ctx.Unlock(lock)
					ctx.Compute(60)
				}
			}
		}},
		{"barrier", func(m *arch.Machine) program.Program {
			bar, n := m.Alloc(1, 64), m.NumCores()
			return func(ctx *program.Ctx) {
				for k := 0; k < rounds; k++ {
					ctx.Compute(int64(10 * (ctx.ID + 1)))
					ctx.BarrierAcrossUnits(bar, n)
				}
			}
		}},
		{"semaphore", func(m *arch.Machine) program.Program {
			sem := m.Alloc(1, 64)
			return func(ctx *program.Ctx) {
				for k := 0; k < rounds; k++ {
					ctx.SemWait(sem, 2)
					ctx.Compute(30)
					ctx.SemPost(sem)
				}
			}
		}},
	}
	for _, s := range fingerprintSchemes {
		for _, w := range workloads {
			b.Run(s.name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				var events uint64
				for b.Loop() {
					m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 4})
					m.Backend = core.NewCoordinator(s.opt)
					r := program.NewRunner(m)
					p := w.prog(m)
					for c := 0; c < m.NumCores(); c++ {
						r.AddAt(c, p)
					}
					r.Run()
					events = m.Engine.Executed
				}
				b.ReportMetric(float64(events), "events/run")
			})
		}
	}
}
