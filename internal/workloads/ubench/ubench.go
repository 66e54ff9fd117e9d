// Package ubench implements the Figure-10 microbenchmarks: each of the four
// synchronization primitives exercised by 60 cores that repeatedly reach a
// single synchronization variable, with a configurable instruction interval
// between synchronization points.
//
// Every program calls Ctx.RunAhead: its sync ops are queued instead of each
// handing control back to the engine, and the core's events issue them at
// the same simulated times. The lock, barrier and semaphore programs share
// no host state, so nothing else is needed. The condition-variable programs
// share a token count, which each reads and writes only after catching up
// with its core (Ctx.Now) under the lock.
package ubench

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/program"
)

// Primitive selects the microbenchmark.
type Primitive string

// The four Figure-10 primitives.
const (
	Lock      Primitive = "lock"
	Barrier   Primitive = "barrier"
	Semaphore Primitive = "semaphore"
	CondVar   Primitive = "condvar"
)

// Primitives lists all four in figure order.
func Primitives() []Primitive { return []Primitive{Lock, Barrier, Semaphore, CondVar} }

// Config parameterizes one run.
type Config struct {
	Primitive Primitive
	Interval  int64 // instructions between synchronization points
	Rounds    int   // synchronization points per core
}

// Build registers the benchmark's programs on runner r.
func Build(m *arch.Machine, r *program.Runner, cfg Config) {
	n := m.NumCores()
	v := m.Alloc(0, 64)
	switch cfg.Primitive {
	case Lock:
		// Empty critical section; interval of work between acquisitions.
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				ctx.RunAhead()
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Lock(v)
					ctx.Unlock(v)
					ctx.Compute(cfg.Interval)
				}
			}
		})
	case Barrier:
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				ctx.RunAhead()
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Compute(cfg.Interval)
					ctx.BarrierAcrossUnits(v, n)
				}
			}
		})
	case Semaphore:
		// Half the cores wait, half post (paper §6.1.1).
		half := n / 2
		r.AddN(n, func(i int) program.Program {
			if i < half {
				return func(ctx *program.Ctx) {
					ctx.RunAhead()
					for k := 0; k < cfg.Rounds; k++ {
						ctx.SemWait(v, 0)
						ctx.Compute(cfg.Interval)
					}
				}
			}
			return func(ctx *program.Ctx) {
				ctx.RunAhead()
				for k := 0; k < cfg.Rounds; k++ {
					ctx.SemPost(v)
					ctx.Compute(cfg.Interval)
				}
			}
		})
		// Posts must cover waits exactly: n-half posters x rounds >= half x
		// rounds requires half <= n-half, which holds; surplus posts are
		// absorbed by the count.
	case CondVar:
		// Half wait on the condition, half signal; a token counter gives
		// Mesa-safe semantics (no lost wakeups). tokens is shared host
		// state, so each side catches up with its core (Now) once it holds
		// the lock, before touching it.
		lock := m.Alloc(0, 64)
		half := n / 2
		tokens := 0
		r.AddN(n, func(i int) program.Program {
			if i < half {
				return func(ctx *program.Ctx) {
					ctx.RunAhead()
					for k := 0; k < cfg.Rounds; k++ {
						ctx.Lock(lock)
						ctx.Now()
						for tokens == 0 {
							ctx.CondWait(v, lock)
							ctx.Now()
						}
						tokens--
						ctx.Unlock(lock)
						ctx.Compute(cfg.Interval)
					}
				}
			}
			return func(ctx *program.Ctx) {
				ctx.RunAhead()
				for k := 0; k < cfg.Rounds; k++ {
					ctx.Lock(lock)
					ctx.Now()
					tokens++
					ctx.CondSignal(v, lock)
					ctx.Unlock(lock)
					ctx.Compute(cfg.Interval)
				}
			}
		})
	default:
		panic(fmt.Sprintf("ubench: unknown primitive %q", cfg.Primitive))
	}
}
