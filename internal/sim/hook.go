package sim

// Hook observes the engine's dispatch loop at timestamp granularity. It is
// the engine-level attachment point of the tracing layer (internal/trace):
// nil by default, and every call site is branch-guarded so the disabled path
// adds one predictable nil check per event and no allocations
// (TestEngineSteadyStateAllocFreeTracerNil pins this).
//
// OnAdvance fires at most once per distinct timestamp, from the engine
// goroutine, at the moment the dispatcher selects the first event of a new
// timestamp — before anything at that timestamp is dequeued or executed:
//
//   - prev is the clock before the advance (the previous timestamp, or the
//     time the last Run returned at);
//   - now is the timestamp about to be dispatched;
//   - pending is the queue depth at the firing point: every scheduled event,
//     including the entire now batch;
//   - executed is Engine.Executed at the firing point (events completed
//     strictly before now), letting adapters compute per-interval dispatch
//     rates by differencing.
//
// Implementations must not call back into the engine.
type Hook interface {
	OnAdvance(prev, now Time, pending int, executed uint64)
}

// SetHook installs h as the engine's dispatch observer; nil (the default)
// removes it and restores the zero-overhead path. Must not be called while
// Run is executing events.
func (e *Engine) SetHook(h Hook) { e.hook = h }
