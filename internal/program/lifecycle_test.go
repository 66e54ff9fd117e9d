package program

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// runRecover runs r and returns the value Run panicked with, or nil.
func runRecover(r *Runner) (v any) {
	defer func() { v = recover() }()
	r.Run()
	return nil
}

// Every way a run can end must stop every program: a core still suspended
// in an operation when Run returns or panics would otherwise stay behind
// for the life of the process. Stopping is synchronous, so the goroutine
// count is back to its starting value as soon as Run returns.
func TestRunStopsEveryProgram(t *testing.T) {
	exits := []struct {
		name  string
		setup func(r *Runner)
		panic bool
	}{
		{"normal", func(r *Runner) {
			r.AddN(r.M.NumCores(), func(int) Program {
				return func(ctx *Ctx) { ctx.Compute(10) }
			})
		}, false},
		{"deadlock", func(r *Runner) {
			lock := r.M.Alloc(0, 64)
			r.Add(func(ctx *Ctx) {
				ctx.Lock(lock)
				ctx.Lock(lock) // never granted: the core holds it
			})
			r.Add(func(ctx *Ctx) { ctx.Lock(lock) })
		}, true},
		{"program panic", func(r *Runner) {
			r.Add(func(ctx *Ctx) {
				ctx.Compute(10)
				panic("workload bug")
			})
			r.Add(func(ctx *Ctx) {
				for i := 0; i < 10000; i++ {
					ctx.Compute(1)
				}
			})
		}, true},
		{"scan callback panic", func(r *Runner) {
			shared := r.M.AllocShared(1, 64)
			r.Add(func(ctx *Ctx) {
				ctx.ScanReads(0, 8, 1, func(int) uint64 { return shared },
					func(i int) bool {
						if i == 2 {
							panic("workload bug")
						}
						return false
					})
			})
			r.Add(func(ctx *Ctx) {
				for i := 0; i < 10000; i++ {
					ctx.Compute(1)
				}
			})
		}, true},
		{"checker violation", func(r *Runner) {
			lock := r.M.Alloc(0, 64)
			r.Add(func(ctx *Ctx) { ctx.Unlock(lock) }) // never acquired
			r.Add(func(ctx *Ctx) {
				for i := 0; i < 10000; i++ {
					ctx.Compute(1)
				}
			})
		}, true},
		{"MaxEvents", func(r *Runner) {
			r.M.Engine.MaxEvents = 100
			r.AddN(r.M.NumCores(), func(int) Program {
				return func(ctx *Ctx) {
					for i := 0; i < 10000; i++ {
						ctx.Compute(1)
					}
				}
			})
		}, true},
	}
	for _, ex := range exits {
		t.Run(ex.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				r := NewRunner(newM())
				ex.setup(r)
				if v := runRecover(r); (v != nil) != ex.panic {
					t.Fatalf("run %d: Run panicked with %v, want panic=%v", i, v, ex.panic)
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before 20 runs, %d after: programs left behind", before, after)
			}
		})
	}
}

// progBug is a distinct panic value, so the test can check that Run re-raises
// the program's own value and not a wrapped or stringified copy.
type progBug struct{ core int }

// A program panic aborts the whole run at once: the other cores must not
// keep simulating until the engine drains.
func TestProgramPanicAbortsRun(t *testing.T) {
	r := NewRunner(newM())
	bug := &progBug{core: 0}
	r.Add(func(ctx *Ctx) {
		ctx.Compute(1)
		panic(bug)
	})
	const loops = 10000
	count := 0
	r.Add(func(ctx *Ctx) {
		for i := 0; i < loops; i++ {
			ctx.Compute(1)
			count++
		}
	})
	if v := runRecover(r); v != any(bug) {
		t.Fatalf("Run panicked with %#v, want the program's own value %#v", v, bug)
	}
	if count >= 100 {
		t.Errorf("core 1 ran %d of %d operations after core 0 panicked", count, loops)
	}
}

// The deadlock report names every core that did not finish, with the sync
// operation and address it is blocked on, and no core that finished.
func TestDeadlockReportListsEveryBlockedCore(t *testing.T) {
	m := newM()
	r := NewRunner(m)
	a, b := m.Alloc(0, 64), m.Alloc(1, 64)
	r.Add(func(ctx *Ctx) {
		ctx.Lock(a)
		ctx.Lock(a)
	})
	r.Add(func(ctx *Ctx) {
		ctx.Lock(b)
		ctx.Lock(b)
	})
	r.Add(func(ctx *Ctx) { ctx.Compute(10) })
	v := runRecover(r)
	msg, _ := v.(string)
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("Run panicked with %#v, want a deadlock report", v)
	}
	for _, want := range []string{
		fmt.Sprintf("core 0 on lock_acquire %#x", a),
		fmt.Sprintf("core 1 on lock_acquire %#x", b),
		"2 of 3 cores",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("deadlock report %q lacks %q", msg, want)
		}
	}
	if strings.Contains(msg, "core 2") {
		t.Errorf("deadlock report %q names core 2, which finished", msg)
	}
}
