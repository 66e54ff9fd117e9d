package arch

import (
	"fmt"

	"syncron/internal/sim"
	"syncron/internal/trace"
)

// SyncTracer captures per-variable synchronization spans at the
// Backend.Request boundary by wrapping the caller's done continuation, so the
// protocol state machines below it stay untouched. Request and every done
// invocation run inside engine events on the engine goroutine, so emission
// needs no locking; the trace Collector's total-order sort makes the CSV
// byte-identical regardless of emission order.
//
// Wait-type operations become a (issue, grant) span; lock grants open a hold
// span closed by the matching release; condition waits hand their lock's hold
// span over the sleep. Backends construct one per Attach when the machine has
// a tracer.
type SyncTracer struct {
	tr        trace.Tracer
	holdStart map[syncSpanKey]sim.Time // lock grant times awaiting release
	varNames  map[uint64]string        // interned "var.0x..." Where strings
}

// syncSpanKey identifies an in-flight hold span: one core holding one
// variable.
type syncSpanKey struct {
	core int
	addr uint64
}

// NewSyncTracer returns a SyncTracer feeding tr, which must be non-nil.
func NewSyncTracer(tr trace.Tracer) *SyncTracer {
	return &SyncTracer{
		tr:        tr,
		holdStart: make(map[syncSpanKey]sim.Time),
		varNames:  make(map[uint64]string),
	}
}

// varName interns the Where label for a variable address.
func (s *SyncTracer) varName(addr uint64) string {
	if n, ok := s.varNames[addr]; ok {
		return n
	}
	n := fmt.Sprintf("var.0x%x", addr)
	s.varNames[addr] = n
	return n
}

func (s *SyncTracer) emit(start, end sim.Time, addr uint64, what string) {
	s.tr.Emit(trace.Record{Start: start, End: end, Where: s.varName(addr),
		What: what, Value: float64(end - start), Unit: "ps"})
}

// Request observes one sync request issued at time t and returns the done
// continuation the backend should invoke instead of the original.
func (s *SyncTracer) Request(t sim.Time, core int, req SyncReq, done func(sim.Time)) func(sim.Time) {
	switch req.Op {
	case OpLockAcquire:
		return func(at sim.Time) {
			s.emit(t, at, req.Addr, trace.WhatLockWait)
			s.holdStart[syncSpanKey{core, req.Addr}] = at
			done(at)
		}
	case OpLockRelease:
		k := syncSpanKey{core, req.Addr}
		if start, ok := s.holdStart[k]; ok {
			s.emit(start, t, req.Addr, trace.WhatLockHold)
			delete(s.holdStart, k)
		}
		return done
	case OpBarrierWithinUnit, OpBarrierAcrossUnits:
		return func(at sim.Time) {
			s.emit(t, at, req.Addr, trace.WhatBarrierWait)
			done(at)
		}
	case OpSemWait:
		return func(at sim.Time) {
			s.emit(t, at, req.Addr, trace.WhatSemWait)
			done(at)
		}
	case OpCondWait:
		// cond_wait atomically releases req.Lock and re-acquires it before
		// returning: close the current hold span now and open a new one at
		// wake time.
		k := syncSpanKey{core, req.Lock}
		if start, ok := s.holdStart[k]; ok {
			s.emit(start, t, req.Lock, trace.WhatLockHold)
			delete(s.holdStart, k)
		}
		return func(at sim.Time) {
			s.emit(t, at, req.Addr, trace.WhatCondWait)
			s.holdStart[k] = at
			done(at)
		}
	default:
		return done
	}
}
