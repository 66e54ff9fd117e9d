// Package program executes per-core "programs" on the simulated machine.
//
// A Program is ordinary Go code written in straight-line style against a
// *Ctx. Each simulated core runs its program as an iter.Pull coroutine: the
// core's engine event resumes it, the program runs to its next
// engine-visible operation and yields it back to the event. The two sides
// strictly alternate, so program code only runs inside its own core's events
// and the simulation is deterministic.
//
// Cores are in-order and blocking (paper §5): each operation completes
// before the next one issues. Core-private operations — Compute and L1 hits
// — run inside the coroutine: they touch only the core's own state (a core's
// L1 is private and only this core's accesses touch it), so the program
// applies them at once and queues their delays. A cacheable access makes one
// L1 lookup (cache.AccessIfHit): a hit updates the L1 exactly as Access
// would, and a miss leaves it untouched for the step event's CoreAccess.
// ReadSettled queues an uncacheable read the same way when the program's
// check on its outcome is already settled, and after Ctx.RunAhead every sync
// op is queued too (see below). Only an L1 miss, any other uncacheable access
// or a sync op that is not queued yields (and, at a small fixed cap, a full
// queue). The step event then plays the queue as a chain of engine events,
// one per entry, each scheduling the next: a delay's event schedules the next
// link at the delay's end, a queued read's event models the read with
// CoreAccess and schedules the next link at its completion, and a sync op's
// event issues it to the backend, whose grant schedules the next link. The
// last link models the yielded operation: a Read or Write schedules one
// resume event at its completion time. A sync op that yields is the last
// entry of the queue it flushes, so its grant event resumes the program.
// ScanReads yields once for a whole loop of Compute, an uncacheable
// read and a check: the event at each read's completion runs the check and,
// while it fails, the next element's delay and read, resuming the program
// only when the check holds or the loop ends. Each chained event is
// scheduled at the time, and from the event, that a resume after its queued
// operation would be, so engine order, event counts, traces and lock-checker
// timing are those of one round trip per operation.
//
// Host-order contract: a program's Go code runs inside its core's step
// event, at the completion time of its previous yielding operation (a miss,
// an uncacheable access or a sync op that was not queued) — not after any
// queued operation in between. Ctx.Now includes queued compute and hit time;
// while a read or sync op is queued the program is ahead of its core's
// simulated time, which is not known until the queue is played, so Now then
// plays the queue first (without adding an event): the program catches up
// with its core. Folding hits is safe because cacheable
// data is private or read-only by construction (shared read-write data is
// AllocShared, hence uncacheable). Code that reads shared Go state outside
// simulated locks — the optimistic structures' unlocked probes (stack's top,
// skiplist's search over next pointers and deletion marks, bst_drachsler's
// lock-free tree walk) — thus observes that state as of that step event,
// after every earlier event and before every later one. While a read is
// queued, and until its next yielding operation, a program may read only host
// state that no other core can write before then, and write only host state
// that no other core reads before then. The one exception is a settled
// predicate passed to ReadSettled: a condition on shared state that, once
// true, stays true (a minimum that only falls, a distance set once), so
// seeing it true early means it is true at the read's completion too.
// ScanReads needs no exception: its callbacks run in the core's events,
// outside the coroutine, at the program's own host points — addr(i) where the
// code before element i's read would run, stop(i) where the code after it
// would — and the program does not run ahead past a scanned read. RunAhead is
// opt-in because it widens the window: from the call on, the program may touch
// host state that another core or the model can change only after catching up,
// at Now or at an operation that yields (an L1 miss, an uncacheable Read or
// Write, an unsettled ReadSettled, ScanReads). The Figure-10 microbenchmarks
// opt in; they share no host state, or read it only after Now. A change to
// when program code runs relative to other events changes what such code sees;
// a test-only lockstep mode, in which nothing but Compute and L1 hits is
// queued, is the reference every run must match byte for byte.
//
// The runner is the only caller of the machine's synchronization backend, so
// it observes every sync op's issue and grant, the same way under every
// scheme. It checks mutual exclusion on every lock and panics on a
// violation, and when the machine has a tracer it emits each wait-type op's
// issue-to-grant span (lock_wait, barrier_wait, sem_wait, cond_wait) and
// each lock's grant-to-release span (lock_hold).
package program

import (
	"fmt"
	"iter"
	"strings"

	"syncron/internal/arch"
	"syncron/internal/sim"
	"syncron/internal/trace"
)

// Program is the body of one simulated core's execution.
type Program func(*Ctx)

// Ctx is the interface a Program uses to interact with the simulated world.
// All methods must be called from the program's own coroutine.
type Ctx struct {
	ID   int // global core id
	Unit int // NDP unit
	RNG  *sim.RNG

	m     *arch.Machine
	p     *proc
	yield func(op) bool // hands the next operation to the core's step event
	now   sim.Time
	ahead bool // a read or sync op is queued, so now is not the core's time yet

	runAhead bool // RunAhead was called: sync ops are queued too
}

type opKind int

const (
	opRead opKind = iota
	opWrite
	opScan  // a ScanReads element's read, checked in the core's events
	opFlush // play the queue, then resume the program
	opEnd   // the program returned: play the queue, then finish
)

type op struct {
	kind opKind
	addr uint64
}

// maxQueued sizes a core's fixed queue of pending operations; a program that
// fills it yields to have it played, so a long compute-only loop runs in
// bounded memory.
const maxQueued = 64

// entry is one queued operation: a core-private delay d, an uncacheable read
// of addr, or a sync request of op sync on addr. A sync request's Info, or
// its Lock for a condition-variable op (no op uses both), is stored in d,
// which keeps the entry at three words.
type entry struct {
	d    sim.Time
	addr uint64
	kind entryKind
	sync uint8 // a sync request's arch.SyncOp
}

type entryKind uint8

const (
	entryDelay entryKind = iota
	entryRead
	entrySync
)

// syncEntry is the queue entry of sync request req.
func syncEntry(req arch.SyncReq) entry {
	x := req.Info
	if carriesLock(req.Op) {
		x = req.Lock
	}
	return entry{d: sim.Time(x), addr: req.Addr, kind: entrySync, sync: uint8(req.Op)}
}

// req is the sync request that sync entry e queues.
func (e *entry) req() arch.SyncReq {
	req := arch.SyncReq{Op: arch.SyncOp(e.sync), Addr: e.addr}
	if carriesLock(req.Op) {
		req.Lock = uint64(e.d)
	} else {
		req.Info = uint64(e.d)
	}
	return req
}

// carriesLock reports whether a request of op names a lock (Lock) rather
// than a count or operand (Info).
func carriesLock(op arch.SyncOp) bool {
	return op == arch.OpCondWait || op == arch.OpCondSignal || op == arch.OpCondBroadcast
}

type proc struct {
	Stats // the core's id, counters and finish time
	done  bool

	// next runs the program coroutine to its next yielded operation (ok is
	// false once it returned) and stop unwinds it; resumeAt carries the
	// previous operation's completion time into the coroutine.
	next     func() (op, bool)
	stop     func()
	resumeAt sim.Time

	// queue[:queued] are the operations (Compute, L1 hits, settled reads and,
	// after RunAhead, sync ops) the program ran through before yielding op;
	// played counts the ones whose events are scheduled or, for a sync op,
	// whose request is issued.
	queue          [maxQueued]entry
	queued, played int
	op             op

	// scan is the ScanReads the core's events are running while op is
	// opScan.
	scan scan

	// The callbacks below are bound once at launch so the per-operation hot
	// path schedules without allocating a fresh closure per event. pend and
	// issued are the arena for the in-flight sync request (in-order blocking
	// cores have at most one), which is what lets grantFn be prebound instead
	// of capturing per-op state.
	stepFn  func(sim.Time) // resumes the program
	playFn  func(sim.Time) // plays the next queued operation
	scanFn  func(sim.Time) // checks a scanned read at its completion
	grantFn func(sim.Time) // backend grant callback for pend
	pend    arch.SyncReq
	issued  sim.Time
}

// Runner drives a set of programs to completion on a machine.
type Runner struct {
	M     *arch.Machine
	procs []*proc
	progs map[int]Program
	next  int

	// holders records who holds each lock since when. It backs the built-in
	// mutual-exclusion checker — lock acquire/release/cond_wait requests
	// verify that no two cores ever hold the same lock and that releases
	// match the holder — and the lock_hold spans. Both run engine-side:
	// release at issue time, acquire at grant time.
	holders map[uint64]holding

	// varNames interns the "var.0x..." trace label of each traced variable.
	varNames map[uint64]string
}

// holding is one lock's current holder and its grant time.
type holding struct {
	core  int
	since sim.Time
}

// NewRunner builds a runner for machine m.
func NewRunner(m *arch.Machine) *Runner {
	return &Runner{M: m, holders: make(map[uint64]holding), varNames: make(map[uint64]string),
		progs: make(map[int]Program)}
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
		p := &proc{Stats: Stats{Core: i}}
		p.stepFn = func(at sim.Time) { r.step(p, at) }
		p.playFn = func(at sim.Time) { r.play(p, at) }
		p.scanFn = func(at sim.Time) { r.scanNext(p, at) }
		p.grantFn = func(done sim.Time) {
			req := p.pend
			if done < p.issued {
				panic(fmt.Sprintf("program: backend %s granted at %v before request at %v",
					r.M.Backend.Name(), done, p.issued))
			}
			if req.Op.Blocking() {
				p.SyncWait += done - p.issued
			}
			r.checkGrant(p, req, done)
			if r.M.Tracer != nil {
				r.traceWait(req, p.issued, done)
			}
			eng.Schedule(done, p.playFn)
		}
		ctx := &Ctx{ID: i, Unit: r.M.UnitOf(i), RNG: r.M.RNG.Fork(), m: r.M, p: p}
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
		makespan = max(makespan, p.Finish)
		if !p.done {
			blocked = append(blocked, fmt.Sprintf("core %d on %v %#x", p.Core, p.pend.Op, p.pend.Addr))
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

// step resumes core p's program at time at, the completion time of its
// previous operation, runs it to its next yielded operation (or its end) and
// starts playing the operations it queued on the way.
func (r *Runner) step(p *proc, at sim.Time) {
	p.resumeAt = at
	o, ok := p.next()
	if !ok {
		o = op{kind: opEnd}
	}
	p.op, p.played = o, 0
	r.play(p, at)
}

// play is core p's event at time at while it works through its queue: it
// schedules the event that ends the next queued operation (modelling it here
// if it is a read), issues it if it is a sync op (whose grant plays on) or,
// once every entry has run, models the operation the program yielded after
// them.
func (r *Runner) play(p *proc, at sim.Time) {
	if p.played < p.queued {
		e := &p.queue[p.played]
		p.played++
		switch e.kind {
		case entryDelay:
			at += e.d
		case entryRead:
			at = r.M.CoreAccess(at, p.Core, e.addr, false)
		case entrySync:
			req := e.req()
			p.SyncOps++
			p.pend, p.issued = req, at
			r.checkIssue(p, req, at)
			r.M.Backend.Request(at, p.Core, req, p.grantFn)
			return
		}
		r.M.Engine.Schedule(at, p.playFn)
		return
	}
	p.queued = 0
	switch o := p.op; o.kind {
	case opRead, opWrite:
		r.M.Engine.Schedule(r.M.CoreAccess(at, p.Core, o.addr, o.kind == opWrite), p.stepFn)
	case opScan:
		r.M.Engine.Schedule(r.M.CoreAccess(at, p.Core, o.addr, false), p.scanFn)
	case opFlush:
		r.step(p, at)
	case opEnd:
		p.done = true
		p.Finish = at
	}
}

// scanNext is core p's event at the completion of scanned element s.i's
// read, where a resume after Read would be: it runs the program's check
// there and, while the check fails, the code before the next element's read
// and that read, as the resumed program would, without resuming it. The
// program resumes once the check holds, the scan ends, or the next address
// is cacheable (the program then reads it itself).
func (r *Runner) scanNext(p *proc, at sim.Time) {
	s := &p.scan
	if s.stop(s.i) {
		r.step(p, at)
		return
	}
	if s.i++; s.i == s.n {
		r.step(p, at)
		return
	}
	a := s.addr(s.i)
	if r.M.Cacheable(a) {
		s.next, s.cached = a, true
		r.step(p, at)
		return
	}
	p.Reads++
	if s.instrs > 0 {
		p.Instrs += uint64(s.instrs)
		p.queue[0], p.queued = entry{d: r.M.CoreClock.Cycles(s.instrs)}, 1
	}
	p.op.addr, p.played = a, 0
	r.play(p, at)
}

// checkIssue runs the release-side lock checks when a sync request is
// issued at time at, and closes the released lock's hold span.
func (r *Runner) checkIssue(p *proc, req arch.SyncReq, at sim.Time) {
	var lock uint64
	switch req.Op {
	case arch.OpLockRelease:
		lock = req.Addr
		if h, held := r.holders[lock]; !held || h.core != p.Core {
			violation("core %d released lock %#x it does not hold (holder %d, held=%v)",
				p.Core, lock, h.core, held)
		}
	case arch.OpCondWait:
		lock = req.Lock
		if h, held := r.holders[lock]; !held || h.core != p.Core {
			violation("core %d cond_wait on %#x without holding lock %#x", p.Core, req.Addr, lock)
		}
	default:
		return
	}
	if r.M.Tracer != nil {
		r.emit(r.holders[lock].since, at, lock, trace.WhatLockHold)
	}
	delete(r.holders, lock)
}

// checkGrant runs the acquire-side lock checks when the backend grants a sync
// request at time at, and opens the granted lock's hold span. Grant callbacks
// come from backend events.
func (r *Runner) checkGrant(p *proc, req arch.SyncReq, at sim.Time) {
	switch req.Op {
	case arch.OpLockAcquire:
		if h, held := r.holders[req.Addr]; held {
			violation("mutual exclusion violated: lock %#x granted to core %d while held by %d at %v",
				req.Addr, p.Core, h.core, at)
		}
		r.holders[req.Addr] = holding{p.Core, at}
	case arch.OpCondWait:
		if h, held := r.holders[req.Lock]; held {
			violation("cond_wait woke core %d with lock %#x held by %d", p.Core, req.Lock, h.core)
		}
		r.holders[req.Lock] = holding{p.Core, at}
	}
}

// violation reports a checker failure.
func violation(format string, args ...any) {
	panic("program: " + fmt.Sprintf(format, args...))
}

// traceWait emits the wait span of a blocking sync request issued at time
// issued and granted at time at.
func (r *Runner) traceWait(req arch.SyncReq, issued, at sim.Time) {
	var what string
	switch req.Op {
	case arch.OpLockAcquire:
		what = trace.WhatLockWait
	case arch.OpBarrierWithinUnit, arch.OpBarrierAcrossUnits:
		what = trace.WhatBarrierWait
	case arch.OpSemWait:
		what = trace.WhatSemWait
	case arch.OpCondWait:
		what = trace.WhatCondWait
	default:
		return
	}
	r.emit(issued, at, req.Addr, what)
}

// emit records one span of variable addr.
func (r *Runner) emit(start, end sim.Time, addr uint64, what string) {
	name, ok := r.varNames[addr]
	if !ok {
		name = fmt.Sprintf("var.0x%x", addr)
		r.varNames[addr] = name
	}
	r.M.Tracer.Emit(trace.Record{Start: start, End: end, Where: name, What: what,
		Value: float64(end - start), Unit: "ps"})
}

// ---- Ctx operations ----

// do yields o to the core's step event and returns o's completion time.
func (c *Ctx) do(o op) sim.Time {
	if !c.yield(o) { // Run is stopping the program
		panic(stopped{})
	}
	c.now, c.ahead = c.p.resumeAt, false
	return c.now
}

// delay queues d of core-private time for the step event to play.
func (c *Ctx) delay(d sim.Time) {
	c.now += d
	c.enqueue(entry{d: d})
}

// enqueue appends e to the core's queue, yielding to have the queue played
// once it is full.
func (c *Ctx) enqueue(e entry) {
	p := c.p
	p.queue[p.queued] = e
	if p.queued++; p.queued == maxQueued {
		c.do(op{kind: opFlush})
	}
}

// Now returns the core's current simulated time, including any queued
// compute and L1-hit time. While a read or sync op is queued that time is not
// known yet, so Now first has the queue played, which adds no event: the
// program has caught up with its core.
func (c *Ctx) Now() sim.Time {
	if c.ahead {
		c.do(op{kind: opFlush})
	}
	return c.now
}

// Compute models n instructions of local computation (1 instruction/cycle).
func (c *Ctx) Compute(n int64) {
	if n <= 0 {
		return
	}
	c.p.Instrs += uint64(n)
	c.delay(c.m.CoreClock.Cycles(n))
}

// Read models a blocking load from addr.
func (c *Ctx) Read(addr uint64) { c.access(addr, false) }

// Write models a blocking store to addr.
func (c *Ctx) Write(addr uint64) { c.access(addr, true) }

// ReadSettled models a blocking load from addr that the program follows with
// a check on shared host state, and returns the check's outcome. settled
// must be a condition that, once true, stays true however other cores
// change that state, and must touch no simulated state. If it holds already,
// the read's outcome cannot change it: the read is queued like a core-private
// operation and the program runs on without yielding. Otherwise it is Read,
// and settled is evaluated at the read's completion, exactly where code after
// Read would. Either way the engine runs the same events as Read followed by
// the check; only the host time at which later program code runs moves (see
// the host-order contract in the package doc).
func (c *Ctx) ReadSettled(addr uint64, settled func() bool) bool {
	if lockstep || c.m.Cacheable(addr) || !settled() {
		c.Read(addr)
		return settled()
	}
	c.p.Reads++
	c.ahead = true
	c.enqueue(entry{addr: addr, kind: entryRead})
	return true
}

// ScanReads models, for i = from, from+1, ..., n-1, Compute(instrs), a
// blocking read of addr(i), then the program's check stop(i) at the read's
// completion, and returns the first i whose check holds, or n. addr(i) is the
// program's code before element i's read and stop(i) its code after it; both
// may read and write host state like any program code, but must make no Ctx
// call. Element i's read and check are those of
//
//	ctx.Compute(instrs)
//	a := addr(i)
//	ctx.Read(a)
//	if stop(i) { return i }
//
// and on a cacheable address ScanReads is that loop. From the first
// uncacheable read on, the program yields once and the core's own events
// run the elements without resuming it: each callback runs in the event, and
// at the simulated time, where the loop's code would run after a resume. So
// the engine runs the same events in the same order, with the same counters,
// and the callbacks observe shared state exactly where that code would.
// After RunAhead, ScanReads first catches up with the core, as Now does.
func (c *Ctx) ScanReads(from, n int, instrs int64, addr func(i int) uint64, stop func(i int) bool) int {
	if c.runAhead {
		c.Now()
	}
	for i := from; i < n; i++ {
		c.Compute(instrs)
		a := addr(i)
		if !lockstep && !c.m.Cacheable(a) {
			p := c.p
			p.scan = scan{i: i, n: n, instrs: instrs, addr: addr, stop: stop}
			p.Reads++
			c.do(op{kind: opScan, addr: a})
			if !p.scan.cached {
				return p.scan.i
			}
			// The events stopped before element i's read, on a cacheable
			// address: its compute and read run here.
			i, a = p.scan.i, p.scan.next
			c.Compute(instrs)
		}
		c.Read(a)
		if stop(i) {
			return i
		}
	}
	return n
}

// scan is a running ScanReads: element i of from..n-1 is in flight, and each
// element computes instrs instructions before its read. cached reports that
// element i's address, next, is cacheable, so the program reads it itself.
type scan struct {
	i, n   int
	instrs int64
	addr   func(int) uint64
	stop   func(int) bool
	next   uint64
	cached bool
}

// access serves an L1 hit in the coroutine: only this core's accesses touch
// its L1, so the hit updates LRU and dirty state in program order. A miss
// (which AccessIfHit leaves untouched) or an uncacheable access yields to
// the step event.
func (c *Ctx) access(addr uint64, write bool) {
	kind := opRead
	if write {
		c.p.Writes++
		kind = opWrite
	} else {
		c.p.Reads++
	}
	if c.m.Cacheable(addr) {
		if lat, ok := c.m.Caches[c.ID].AccessIfHit(addr, write); ok {
			c.delay(c.m.CoreClock.Cycles(lat))
			return
		}
	}
	c.do(op{kind: kind, addr: addr})
}

// RunAhead lets the program run ahead past its sync ops for the rest of its
// run: each one is queued like a settled read instead of yielding, and the
// core's events issue it where the yielded op would have been issued and play
// on from its grant. Engine events, traces and lock-checker timing are those
// of one round trip per op; only the host time at which later program code
// runs moves. So from the call on, the program may touch host state that
// another core or the model can change only after catching up with its core:
// at Now, or at an operation that yields (an L1 miss, an uncacheable Read or
// Write, an unsettled ReadSettled, ScanReads). A program that shares no host
// state, or reads it only after such a catch-up, gets the same run with far
// fewer coroutine handoffs.
func (c *Ctx) RunAhead() { c.runAhead = !lockstep }

// lockstep, set only by tests, makes every program run in lockstep with its
// core: RunAhead is ignored, ReadSettled is Read plus the check and ScanReads
// is the plain loop, so only Compute and L1 hits are queued. It is the
// reference that running ahead must match byte for byte.
var lockstep bool

// Sync issues a raw synchronization request. Only the field its op uses is
// kept: Lock for a condition-variable op, Info for every other op.
func (c *Ctx) Sync(req arch.SyncReq) {
	c.ahead = true
	c.enqueue(syncEntry(req))
	if !c.runAhead {
		c.Now()
	}
}

// Lock acquires the lock at addr (req_sync lock_acquire). When the runner's
// checker is on, mutual exclusion is verified engine-side at grant time.
func (c *Ctx) Lock(addr uint64) { c.Sync(arch.SyncReq{Op: arch.OpLockAcquire, Addr: addr}) }

// Unlock releases the lock at addr (req_async lock_release). The checker
// verifies the release against the holder engine-side at issue time.
func (c *Ctx) Unlock(addr uint64) { c.Sync(arch.SyncReq{Op: arch.OpLockRelease, Addr: addr}) }

// BarrierWithinUnit waits on a barrier among n cores of the caller's unit.
func (c *Ctx) BarrierWithinUnit(addr uint64, n int) {
	c.Sync(arch.SyncReq{Op: arch.OpBarrierWithinUnit, Addr: addr, Info: uint64(n)})
}

// BarrierAcrossUnits waits on a barrier among n cores across NDP units.
func (c *Ctx) BarrierAcrossUnits(addr uint64, n int) {
	c.Sync(arch.SyncReq{Op: arch.OpBarrierAcrossUnits, Addr: addr, Info: uint64(n)})
}

// SemWait performs P() on the semaphore at addr with the given initial value
// (communicated on first touch, as in the paper's API).
func (c *Ctx) SemWait(addr uint64, initial int) {
	c.Sync(arch.SyncReq{Op: arch.OpSemWait, Addr: addr, Info: uint64(initial)})
}

// SemPost performs V() on the semaphore at addr.
func (c *Ctx) SemPost(addr uint64) { c.Sync(arch.SyncReq{Op: arch.OpSemPost, Addr: addr}) }

// CondWait atomically releases lock and waits on the condition variable at
// addr; the lock is re-acquired before return. The checker verifies the
// release at issue time and the re-acquisition at wakeup, engine-side.
func (c *Ctx) CondWait(addr, lock uint64) {
	c.Sync(arch.SyncReq{Op: arch.OpCondWait, Addr: addr, Lock: lock})
}

// CondSignal wakes one waiter of the condition variable at addr.
func (c *Ctx) CondSignal(addr, lock uint64) {
	c.Sync(arch.SyncReq{Op: arch.OpCondSignal, Addr: addr, Lock: lock})
}

// CondBroadcast wakes all waiters of the condition variable at addr.
func (c *Ctx) CondBroadcast(addr, lock uint64) {
	c.Sync(arch.SyncReq{Op: arch.OpCondBroadcast, Addr: addr, Lock: lock})
}

// FetchAdd performs the §4.4.1 RMW extension on SynCron backends.
func (c *Ctx) FetchAdd(addr uint64, delta uint64) {
	c.Sync(arch.SyncReq{Op: arch.OpFetchAdd, Addr: addr, Info: delta})
}

// Stats holds one core's counters: each proc embeds one, and Runner.Stats
// copies them out after a run.
type Stats struct {
	Core     int
	Instrs   uint64
	Reads    uint64
	Writes   uint64
	SyncOps  uint64
	SyncWait sim.Time // time spent blocked in acquire-type sync ops
	Finish   sim.Time
}

// Stats returns one entry per core that has a program, in core order; each
// entry's Core field names its core.
func (r *Runner) Stats() []Stats {
	out := make([]Stats, len(r.procs))
	for i, p := range r.procs {
		out[i] = p.Stats
	}
	return out
}
