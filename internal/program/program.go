// Package program executes per-core "programs" on the simulated machine.
//
// A Program is ordinary Go code written in straight-line style against a
// *Ctx. Each simulated core runs its program as an iter.Pull coroutine: the
// core's engine event resumes it, the program runs to its next operation and
// yields it back to the event. The two sides strictly alternate, so program
// code only runs inside its own core's events and the simulation is
// deterministic.
//
// Cores are in-order and blocking (paper §5): each operation completes
// before the next one issues.
package program

import (
	"fmt"
	"iter"
	"strings"

	"syncron/internal/arch"
	"syncron/internal/sim"
)

// Program is the body of one simulated core's execution.
type Program func(*Ctx)

// Ctx is the interface a Program uses to interact with the simulated world.
// All methods must be called from the program's own coroutine.
type Ctx struct {
	ID   int // global core id
	Unit int // NDP unit
	RNG  *sim.RNG

	p     *proc
	yield func(op) bool // hands the next operation to the core's step event
	now   sim.Time
}

type opKind int

const (
	opCompute opKind = iota
	opRead
	opWrite
	opSync
)

type op struct {
	kind opKind
	n    int64
	addr uint64
	req  arch.SyncReq
}

type proc struct {
	id       int
	done     bool
	finishAt sim.Time

	// next runs the program coroutine to its next operation (ok is false once
	// it returned) and stop unwinds it; resumeAt carries the previous
	// operation's completion time into the coroutine.
	next     func() (op, bool)
	stop     func()
	resumeAt sim.Time

	// The callbacks below are bound once at launch so the per-operation hot
	// path schedules without allocating a fresh closure per event. pend and
	// issued are the arena for the in-flight operation (in-order blocking
	// cores have at most one), which is what lets memFn/syncFn/grantFn be
	// prebound instead of capturing per-op state.
	stepFn   func(sim.Time)
	resumeFn func(sim.Time)
	memFn    func(sim.Time) // split-off memory access (pend)
	syncFn   func(sim.Time) // split-off synchronization request (pend)
	grantFn  func(sim.Time) // backend grant callback for pend
	pend     op
	issued   sim.Time

	// statistics
	Instrs   uint64
	Reads    uint64
	Writes   uint64
	SyncOps  uint64
	SyncWait sim.Time // time spent blocked in acquire-type sync ops
}

// Runner drives a set of programs to completion on a machine.
type Runner struct {
	M     *arch.Machine
	procs []*proc
	progs map[int]Program
	next  int

	// CheckLocks enables the built-in mutual-exclusion checker (on by
	// default): lock acquire/release/cond_wait requests verify that no two
	// cores ever hold the same lock and that releases match the holder. The
	// checker runs engine-side: release checks at issue time, acquire checks
	// at grant time.
	CheckLocks bool

	// SplitAccess selects the split-access event order: a memory access that
	// misses the core's L1, and every synchronization request, is modeled in
	// an event of its own at the same timestamp instead of inside the core's
	// step event. That event takes a later place among same-timestamp
	// events, so the split changes which of several contending cores reaches
	// a shared resource first. The workloads calibrated with it (the
	// primitive microbenchmarks, the structures named by ds.SplitAccess)
	// turn it on; the rest model every access inline. Must be set before Run.
	SplitAccess bool

	holders map[uint64]int // lock addr -> core id

	// Violations counts checker failures when PanicOnViolation is off.
	Violations int
	// PanicOnViolation makes checker failures fatal (default true).
	PanicOnViolation bool
}

// NewRunner builds a runner for machine m.
func NewRunner(m *arch.Machine) *Runner {
	return &Runner{M: m, CheckLocks: true, PanicOnViolation: true,
		holders: make(map[uint64]int), progs: make(map[int]Program)}
}

// Add registers a program for the next free core. It panics if more programs
// are added than the machine has cores.
func (r *Runner) Add(p Program) {
	for r.progs[r.next] != nil {
		r.next++
	}
	r.AddAt(r.next, p)
}

// AddAt registers a program on a specific core (thread pinning).
func (r *Runner) AddAt(core int, p Program) {
	if core < 0 || core >= r.M.NumCores() {
		panic(fmt.Sprintf("program: core %d out of range (%d cores)", core, r.M.NumCores()))
	}
	if r.progs[core] != nil {
		panic(fmt.Sprintf("program: core %d already has a program", core))
	}
	r.progs[core] = p
}

// AddN registers n copies of the program produced by gen(i) on consecutive
// free cores.
func (r *Runner) AddN(n int, gen func(i int) Program) {
	for i := 0; i < n; i++ {
		r.Add(gen(i))
	}
}

// Run executes all programs to completion and returns the makespan (the time
// the last core finished). A program panic aborts the run at once and is
// re-raised with its original value; cores left blocked panic as a deadlock.
func (r *Runner) Run() sim.Time {
	if r.M.Backend == nil {
		panic("program: machine has no synchronization backend attached")
	}
	r.M.Backend.Attach(r.M)
	eng := r.M.Engine
	defer func() {
		// Unwind every program still suspended mid-operation, whatever ended
		// the run, so no coroutine outlives it.
		for _, p := range r.procs {
			p.stop()
			p.next, p.stop = nil, nil
		}
	}()
	for i := 0; i < r.M.NumCores(); i++ {
		pg := r.progs[i]
		if pg == nil {
			continue
		}
		p := &proc{id: i}
		p.stepFn = func(at sim.Time) { r.step(p, at) }
		p.resumeFn = func(at sim.Time) {
			p.resumeAt = at
			r.step(p, at)
		}
		p.memFn = func(at sim.Time) {
			o := p.pend
			eng.Schedule(r.M.CoreAccess(at, p.id, o.addr, o.kind == opWrite), p.resumeFn)
		}
		p.syncFn = func(at sim.Time) { r.issueSync(p, at) }
		p.grantFn = func(done sim.Time) {
			req := p.pend.req
			if done < p.issued {
				panic(fmt.Sprintf("program: backend %s granted at %v before request at %v",
					r.M.Backend.Name(), done, p.issued))
			}
			if req.Op.Blocking() {
				p.SyncWait += done - p.issued
			}
			r.checkGrant(p, req, done)
			eng.Schedule(done, p.resumeFn)
		}
		ctx := &Ctx{ID: i, Unit: r.M.UnitOf(i), RNG: r.M.RNG.Fork(), p: p}
		// The coroutine starts at the core's first step event. A program's own
		// panic passes through, and iter.Pull re-raises it from next.
		p.next, p.stop = iter.Pull(func(yield func(op) bool) {
			defer func() {
				if v := recover(); v != nil && v != (stopped{}) {
					panic(v)
				}
			}()
			ctx.yield = yield
			pg(ctx)
		})
		r.procs = append(r.procs, p)
	}
	for _, p := range r.procs {
		eng.Schedule(0, p.stepFn)
	}
	eng.Run()
	var makespan sim.Time
	var blocked []string
	for _, p := range r.procs {
		makespan = max(makespan, p.finishAt)
		if !p.done {
			blocked = append(blocked, fmt.Sprintf("core %d on %v %#x", p.id, p.pend.req.Op, p.pend.req.Addr))
		}
	}
	if blocked != nil {
		panic(fmt.Sprintf("program: deadlock at %v: %d of %d cores never finished (sync op never granted): %s",
			eng.Now(), len(blocked), len(r.procs), strings.Join(blocked, "; ")))
	}
	return makespan
}

// stopped is the panic value that unwinds a program stopped mid-operation.
type stopped struct{}

// step fetches the next operation from core p's program and models it, as
// the core's engine event at time at. Under SplitAccess, L1 misses and sync
// requests are handed to a same-timestamp event of their own.
func (r *Runner) step(p *proc, at sim.Time) {
	eng := r.M.Engine
	o, ok := p.next()
	if !ok {
		p.done = true
		p.finishAt = at
		return
	}
	switch o.kind {
	case opCompute:
		p.Instrs += uint64(o.n)
		eng.Schedule(at+r.M.CoreClock.Cycles(o.n), p.resumeFn)
	case opRead, opWrite:
		write := o.kind == opWrite
		if write {
			p.Writes++
		} else {
			p.Reads++
		}
		if r.SplitAccess && !r.M.CoreL1Hit(p.id, o.addr) {
			p.pend = o
			eng.Schedule(at, p.memFn)
			return
		}
		eng.Schedule(r.M.CoreAccess(at, p.id, o.addr, write), p.resumeFn)
	case opSync:
		p.SyncOps++
		p.pend = o
		if r.SplitAccess {
			eng.Schedule(at, p.syncFn)
			return
		}
		r.issueSync(p, at)
	}
}

// issueSync submits the core's pending synchronization request to the
// backend.
func (r *Runner) issueSync(p *proc, at sim.Time) {
	p.issued = at
	r.checkIssue(p, p.pend.req)
	r.M.Backend.Request(at, p.id, p.pend.req, p.grantFn)
}

// checkIssue runs the release-side lock checks when a sync request is issued.
func (r *Runner) checkIssue(p *proc, req arch.SyncReq) {
	if !r.CheckLocks {
		return
	}
	switch req.Op {
	case arch.OpLockRelease:
		if h, held := r.holders[req.Addr]; !held || h != p.id {
			r.violation("core %d released lock %#x it does not hold (holder %d, held=%v)",
				p.id, req.Addr, h, held)
		}
		delete(r.holders, req.Addr)
	case arch.OpCondWait:
		if h, held := r.holders[req.Lock]; !held || h != p.id {
			r.violation("core %d cond_wait on %#x without holding lock %#x", p.id, req.Addr, req.Lock)
		}
		delete(r.holders, req.Lock)
	}
}

// checkGrant runs the acquire-side lock checks when the backend grants a sync
// request. Grant callbacks come from backend events.
func (r *Runner) checkGrant(p *proc, req arch.SyncReq, at sim.Time) {
	if !r.CheckLocks {
		return
	}
	switch req.Op {
	case arch.OpLockAcquire:
		if h, held := r.holders[req.Addr]; held {
			r.violation("mutual exclusion violated: lock %#x granted to core %d while held by %d at %v",
				req.Addr, p.id, h, at)
		}
		r.holders[req.Addr] = p.id
	case arch.OpCondWait:
		if h, held := r.holders[req.Lock]; held {
			r.violation("cond_wait woke core %d with lock %#x held by %d", p.id, req.Lock, h)
		}
		r.holders[req.Lock] = p.id
	}
}

// violation reports a checker failure.
func (r *Runner) violation(format string, args ...any) {
	r.Violations++
	if r.PanicOnViolation {
		panic("program: " + fmt.Sprintf(format, args...))
	}
}

// ---- Ctx operations ----

// do yields o to the core's step event and returns o's completion time.
func (c *Ctx) do(o op) sim.Time {
	if !c.yield(o) { // Run is stopping the program
		panic(stopped{})
	}
	c.now = c.p.resumeAt
	return c.now
}

// Now returns the core's current simulated time.
func (c *Ctx) Now() sim.Time { return c.now }

// Compute models n instructions of local computation (1 instruction/cycle).
func (c *Ctx) Compute(n int64) {
	if n <= 0 {
		return
	}
	c.do(op{kind: opCompute, n: n})
}

// Read models a blocking load from addr.
func (c *Ctx) Read(addr uint64) { c.do(op{kind: opRead, addr: addr}) }

// Write models a blocking store to addr.
func (c *Ctx) Write(addr uint64) { c.do(op{kind: opWrite, addr: addr}) }

// Sync issues a raw synchronization request.
func (c *Ctx) Sync(req arch.SyncReq) { c.do(op{kind: opSync, req: req}) }

// Lock acquires the lock at addr (req_sync lock_acquire). When the runner's
// checker is on, mutual exclusion is verified engine-side at grant time.
func (c *Ctx) Lock(addr uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpLockAcquire, Addr: addr}})
}

// Unlock releases the lock at addr (req_async lock_release). The checker
// verifies the release against the holder engine-side at issue time.
func (c *Ctx) Unlock(addr uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpLockRelease, Addr: addr}})
}

// BarrierWithinUnit waits on a barrier among n cores of the caller's unit.
func (c *Ctx) BarrierWithinUnit(addr uint64, n int) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpBarrierWithinUnit, Addr: addr, Info: uint64(n)}})
}

// BarrierAcrossUnits waits on a barrier among n cores across NDP units.
func (c *Ctx) BarrierAcrossUnits(addr uint64, n int) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpBarrierAcrossUnits, Addr: addr, Info: uint64(n)}})
}

// SemWait performs P() on the semaphore at addr with the given initial value
// (communicated on first touch, as in the paper's API).
func (c *Ctx) SemWait(addr uint64, initial int) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpSemWait, Addr: addr, Info: uint64(initial)}})
}

// SemPost performs V() on the semaphore at addr.
func (c *Ctx) SemPost(addr uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpSemPost, Addr: addr}})
}

// CondWait atomically releases lock and waits on the condition variable at
// addr; the lock is re-acquired before return. The checker verifies the
// release at issue time and the re-acquisition at wakeup, engine-side.
func (c *Ctx) CondWait(addr, lock uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpCondWait, Addr: addr, Lock: lock}})
}

// CondSignal wakes one waiter of the condition variable at addr.
func (c *Ctx) CondSignal(addr, lock uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpCondSignal, Addr: addr, Lock: lock}})
}

// CondBroadcast wakes all waiters of the condition variable at addr.
func (c *Ctx) CondBroadcast(addr, lock uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpCondBroadcast, Addr: addr, Lock: lock}})
}

// FetchAdd performs the §4.4.1 RMW extension on SynCron backends.
func (c *Ctx) FetchAdd(addr uint64, delta uint64) {
	c.do(op{kind: opSync, req: arch.SyncReq{Op: arch.OpFetchAdd, Addr: addr, Info: delta}})
}

// Stats returns per-core statistics after a run.
type Stats struct {
	Core     int
	Instrs   uint64
	Reads    uint64
	Writes   uint64
	SyncOps  uint64
	SyncWait sim.Time
	Finish   sim.Time
}

// Stats returns statistics for every core, indexed by core id.
func (r *Runner) Stats() []Stats {
	out := make([]Stats, len(r.procs))
	for i, p := range r.procs {
		out[i] = Stats{Core: p.id, Instrs: p.Instrs, Reads: p.Reads, Writes: p.Writes,
			SyncOps: p.SyncOps, SyncWait: p.SyncWait, Finish: p.finishAt}
	}
	return out
}
