// Package coherlock implements the coherence-based lock algorithms the
// paper measures for motivation: the MESI test&set lock used in Figure 2
// (mesi-lock), and the TTAS and Hierarchical Ticket Lock algorithms of
// Table 1. They run as arch.Backend implementations on top of the MESI
// directory model, so any workload can be re-run under coherence-based
// synchronization.
package coherlock

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/coherence"
	"syncron/internal/sim"
)

// Algorithm selects the lock algorithm.
type Algorithm int

// Supported algorithms.
const (
	// MESILock is a test&set spin lock: every attempt is an RMW on the lock
	// line (the mesi-lock of Figure 2).
	MESILock Algorithm = iota
	// TTAS is test-and-test&set: spin on a shared read, RMW only when the
	// lock looks free.
	TTAS
	// HTL is the Hierarchical Ticket Lock: release prefers waiters in the
	// releasing core's socket/unit, bounding cross-socket transfers.
	HTL
)

func (a Algorithm) String() string {
	switch a {
	case MESILock:
		return "mesi-lock"
	case TTAS:
		return "ttas"
	case HTL:
		return "htl"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Backend is a coherence-based lock scheme. Only lock semantics are
// supported (like SSB/LCU, these schemes have no barrier/semaphore/condvar
// primitives); barrier requests go to the embedded Ideal scheme so mixed
// workloads can still run, and any other operation panics.
type Backend struct {
	Alg Algorithm
	// Ideal serves barriers: zero-cost, granted when the last core arrives.
	baselines.Ideal

	m     *arch.Machine
	space *coherence.Space
	locks map[uint64]*lockState
}

type waiter struct {
	core int
	done func(sim.Time)
}

type lockState struct {
	held     bool
	spinners []waiter
	batch    int
}

// htlLocalBatch bounds HTL's consecutive same-unit lock handoffs.
const htlLocalBatch = 8

// New returns a coherence-lock backend using the given algorithm.
func New(alg Algorithm) *Backend { return &Backend{Alg: alg} }

// Attach implements arch.Backend.
func (b *Backend) Attach(m *arch.Machine) {
	b.Ideal.Attach(m)
	b.m = m
	b.space = coherence.NewSpace(m)
	b.locks = make(map[uint64]*lockState)
}

// Request implements arch.Backend.
func (b *Backend) Request(t sim.Time, core int, req arch.SyncReq, done func(sim.Time)) {
	switch req.Op {
	case arch.OpLockAcquire:
		b.acquire(t, core, req.Addr, done)
	case arch.OpLockRelease:
		done(t + b.m.CoreClock.Cycles(1))
		b.release(t, core, req.Addr)
	case arch.OpBarrierWithinUnit, arch.OpBarrierAcrossUnits:
		b.Ideal.Request(t, core, req, done)
	default:
		panic(fmt.Sprintf("coherlock: scheme %s does not model %v", b.Alg, req.Op))
	}
}

// socketLine is the HTL per-socket now-serving cache line for a lock,
// placed in a shadow region of the lock's home unit so it cannot collide
// with other allocations.
func (b *Backend) socketLine(addr uint64, core int) uint64 {
	return addr + (1 << 30) + uint64(1+b.m.UnitOf(core))*64
}

func (b *Backend) lock(addr uint64) *lockState {
	l, ok := b.locks[addr]
	if !ok {
		l = &lockState{}
		b.locks[addr] = l
	}
	return l
}

// acquire models one lock acquisition attempt.
func (b *Backend) acquire(t sim.Time, core int, addr uint64, done func(sim.Time)) {
	l := b.lock(addr)
	switch b.Alg {
	case MESILock:
		// Unconditional RMW.
		at := b.space.Access(t, core, addr, coherence.RMW)
		b.m.Engine.Schedule(at, func(at sim.Time) { b.tryWin(at, core, addr, done) })
	case TTAS:
		// Read first; RMW follows if it looks free.
		at := b.space.Access(t, core, addr, coherence.Load)
		b.m.Engine.Schedule(at, func(at sim.Time) {
			if !l.held {
				at2 := b.space.Access(at, core, addr, coherence.RMW)
				b.m.Engine.Schedule(at2, func(at2 sim.Time) { b.tryWin(at2, core, addr, done) })
				return
			}
			l.spinners = append(l.spinners, waiter{core, done})
		})
	case HTL:
		// Two-level ticket lock: fetch a ticket from the global line, then
		// check the per-socket now-serving line — one extra line access than
		// TTAS when uncontended, but waiters spin on their socket's line.
		at := b.space.Access(t, core, addr, coherence.RMW) // ticket fetch
		at = b.space.Access(at, core, b.socketLine(addr, core), coherence.Load)
		b.m.Engine.Schedule(at, func(at sim.Time) { b.tryWin(at, core, addr, done) })
	}
}

// tryWin takes the lock if free, otherwise registers the core as a spinner
// (its subsequent spin reads are local L1 hits until invalidated).
func (b *Backend) tryWin(t sim.Time, core int, addr uint64, done func(sim.Time)) {
	l := b.lock(addr)
	if !l.held {
		l.held = true
		done(t)
		return
	}
	l.spinners = append(l.spinners, waiter{core, done})
}

// release hands the lock to a spinner: the releasing store invalidates all
// spinners' cached copies; every spinner re-reads the line (coherence
// traffic), and one wins the subsequent RMW race.
func (b *Backend) release(t sim.Time, core int, addr uint64) {
	l := b.lock(addr)
	wt := b.space.Access(t, core, addr, coherence.Store)
	b.m.Engine.Schedule(wt, func(wt sim.Time) {
		l.held = false
		if len(l.spinners) == 0 {
			l.batch = 0
			return
		}
		// Pick the winner.
		idx := 0
		if b.Alg == HTL && l.batch < htlLocalBatch {
			relUnit := b.m.UnitOf(core)
			for i, w := range l.spinners {
				if b.m.UnitOf(w.core) == relUnit {
					idx = i
					break
				}
			}
		}
		win := l.spinners[idx]
		l.spinners = append(l.spinners[:idx], l.spinners[idx+1:]...)
		if b.Alg == HTL && b.m.UnitOf(win.core) == b.m.UnitOf(core) {
			l.batch++
		} else {
			l.batch = 0
		}
		var winAt sim.Time
		if b.Alg == HTL {
			// Ticket handoff: the releaser bumps the winner's socket
			// now-serving line; only same-socket spinners re-read it.
			grantLine := b.socketLine(addr, win.core)
			gw := b.space.Access(wt, core, grantLine, coherence.Store)
			for _, sp := range l.spinners {
				if b.m.UnitOf(sp.core) == b.m.UnitOf(win.core) {
					b.space.Access(gw, sp.core, grantLine, coherence.Load)
				}
			}
			winAt = b.space.Access(gw, win.core, grantLine, coherence.Load)
		} else {
			// TAS-style release: the store invalidates every spinner's copy;
			// all re-read the line and the winner additionally RMWs it.
			for _, sp := range l.spinners {
				b.space.Access(wt, sp.core, addr, coherence.Load)
			}
			winAt = b.space.Access(wt, win.core, addr, coherence.Load)
			winAt = b.space.Access(winAt, win.core, addr, coherence.RMW)
		}
		l.held = true
		b.m.Engine.Schedule(winAt, win.done)
	})
}
