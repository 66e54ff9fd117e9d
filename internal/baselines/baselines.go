// Package baselines provides the synchronization schemes SynCron is
// evaluated against (paper §5, "Comparison Points"):
//
//   - Central: one NDP core in the entire system acts as a synchronization
//     server (an all-primitives extension of Tesseract's message-passing
//     barrier). All other cores exchange hardware messages with it, and it
//     accesses synchronization variables through its memory hierarchy.
//   - Hier: one server NDP core per NDP unit (like Gao et al.'s hierarchical
//     tree barrier and pLock): local servers aggregate their unit's requests
//     and coordinate with the master server of each variable.
//   - Ideal: a scheme with zero performance overhead for synchronization,
//     used as the upper bound.
package baselines

import (
	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/sim"
)

// NewCentral returns the Central baseline.
func NewCentral() arch.Backend {
	return core.NewCoordinator(core.Options{Topology: core.TopoCentral, HardwareSE: false})
}

// NewHier returns the Hier baseline.
func NewHier() arch.Backend {
	return core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: false})
}

// Ideal is the zero-overhead synchronization scheme: requests are granted
// with no latency, traffic, or occupancy — but with full semantics, so
// mutual exclusion, barrier counts, semaphore counts and condition queues
// still behave correctly.
type Ideal struct {
	m *arch.Machine

	locks map[uint64]*idealLock
	bars  map[uint64]*idealBarrier
	sems  map[uint64]*idealSem
	conds map[uint64][]idealCondWaiter
}

type idealLock struct {
	held  bool
	queue []func(sim.Time)
}

type idealBarrier struct {
	arrived int
	waiters []func(sim.Time)
}

type idealSem struct {
	count int
	queue []func(sim.Time)
}

type idealCondWaiter struct {
	lock uint64
	done func(sim.Time)
}

// NewIdeal returns the Ideal scheme.
func NewIdeal() *Ideal { return &Ideal{} }

// Attach implements arch.Backend.
func (b *Ideal) Attach(m *arch.Machine) {
	b.m = m
	b.locks = make(map[uint64]*idealLock)
	b.bars = make(map[uint64]*idealBarrier)
	b.sems = make(map[uint64]*idealSem)
	b.conds = make(map[uint64][]idealCondWaiter)
}

// ExtraCacheEnergyPJ implements arch.Backend.
func (b *Ideal) ExtraCacheEnergyPJ() float64 { return 0 }

// Request implements arch.Backend.
func (b *Ideal) Request(t sim.Time, coreID int, req arch.SyncReq, done func(sim.Time)) {
	at := func(f func(sim.Time)) {
		// Defer through the event queue so grants interleave with other
		// events at the same timestamp deterministically. The engine invokes f
		// with t, so no adapter closure is needed.
		b.m.Engine.Schedule(t, f)
	}
	switch req.Op {
	case arch.OpLockAcquire:
		l := b.lock(req.Addr)
		if !l.held {
			l.held = true
			at(done)
			return
		}
		l.queue = append(l.queue, done)
	case arch.OpLockRelease:
		at(done)
		b.unlock(t, req.Addr)
	case arch.OpBarrierWithinUnit, arch.OpBarrierAcrossUnits:
		bar, ok := b.bars[req.Addr]
		if !ok {
			bar = &idealBarrier{}
			b.bars[req.Addr] = bar
		}
		bar.arrived++
		bar.waiters = append(bar.waiters, done)
		if bar.arrived >= int(req.Info) {
			ws := bar.waiters
			delete(b.bars, req.Addr)
			for _, w := range ws {
				at(w)
			}
		}
	case arch.OpSemWait:
		s, ok := b.sems[req.Addr]
		if !ok {
			s = &idealSem{count: int(req.Info)}
			b.sems[req.Addr] = s
		}
		if s.count > 0 {
			s.count--
			at(done)
			return
		}
		s.queue = append(s.queue, done)
	case arch.OpSemPost:
		at(done)
		s, ok := b.sems[req.Addr]
		if !ok {
			s = &idealSem{}
			b.sems[req.Addr] = s
		}
		if len(s.queue) > 0 {
			w := s.queue[0]
			s.queue = s.queue[1:]
			at(w)
			return
		}
		s.count++
	case arch.OpCondWait:
		b.unlock(t, req.Info)
		b.conds[req.Addr] = append(b.conds[req.Addr], idealCondWaiter{lock: req.Info, done: done})
	case arch.OpCondSignal:
		at(done)
		q := b.conds[req.Addr]
		if len(q) == 0 {
			return
		}
		w := q[0]
		b.conds[req.Addr] = q[1:]
		b.relock(t, w)
	case arch.OpCondBroadcast:
		at(done)
		q := b.conds[req.Addr]
		b.conds[req.Addr] = nil
		for _, w := range q {
			b.relock(t, w)
		}
	case arch.OpFetchAdd:
		at(done)
	default:
		at(done)
	}
}

func (b *Ideal) lock(addr uint64) *idealLock {
	l, ok := b.locks[addr]
	if !ok {
		l = &idealLock{}
		b.locks[addr] = l
	}
	return l
}

func (b *Ideal) unlock(t sim.Time, addr uint64) {
	l := b.lock(addr)
	if len(l.queue) > 0 {
		next := l.queue[0]
		l.queue = l.queue[1:]
		b.m.Engine.Schedule(t, next)
		return
	}
	l.held = false
}

func (b *Ideal) relock(t sim.Time, w idealCondWaiter) {
	l := b.lock(w.lock)
	if !l.held {
		l.held = true
		b.m.Engine.Schedule(t, w.done)
		return
	}
	l.queue = append(l.queue, w.done)
}
