package trace

import "syncron/internal/sim"

// DefaultEngineBucket is the default sim-time width of one engine trace
// bucket: fine enough to resolve contention phases, coarse enough that a
// full quick-figures run stays a few thousand records per run.
const DefaultEngineBucket = 100 * sim.Nanosecond

// EngineHook adapts a Tracer to sim.Hook: it coalesces the per-timestamp
// OnAdvance samples into fixed sim-time buckets and emits two records per
// non-empty bucket —
//
//	(bucketStart, bucketEnd, "engine", "queue_depth", maxPending, "events")
//	(bucketStart, bucketEnd, "engine", "dispatched",  executedDelta, "events")
//
// Bucketing is in simulated time, so output is independent of wall clock.
// Flush must be called once after the run completes to emit the
// final partial bucket.
type EngineHook struct {
	tr    Tracer
	width sim.Time

	open     bool
	bucket   int64  // current bucket index (now / width)
	maxDepth int    // max pending seen in the current bucket
	baseExec uint64 // Engine.Executed when the current bucket opened
	lastExec uint64 // Engine.Executed at the most recent advance
}

// NewEngineHook builds an engine dispatch hook feeding tr; width <= 0 uses
// DefaultEngineBucket.
func NewEngineHook(tr Tracer, width sim.Time) *EngineHook {
	if width <= 0 {
		width = DefaultEngineBucket
	}
	return &EngineHook{tr: tr, width: width}
}

// OnAdvance implements sim.Hook. executed counts events completed BEFORE this
// advance — i.e. everything at timestamps of earlier (or the current) bucket —
// so on a bucket roll it is exactly the old bucket's closing count.
func (h *EngineHook) OnAdvance(prev, now sim.Time, pending int, executed uint64) {
	b := int64(now / h.width)
	if !h.open {
		h.open = true
		h.bucket = b
		h.maxDepth = 0
		h.baseExec = executed
	} else if b != h.bucket {
		h.lastExec = executed
		h.emit()
		h.bucket = b
		h.maxDepth = 0
		h.baseExec = executed
	}
	if pending > h.maxDepth {
		h.maxDepth = pending
	}
	h.lastExec = executed
}

// Flush emits the final partial bucket, attributing events executed after
// the last advance (finalExecuted is the engine's Executed count at run
// end). It resets the hook, so one EngineHook can observe several runs.
func (h *EngineHook) Flush(finalExecuted uint64) {
	if !h.open {
		return
	}
	h.lastExec = finalExecuted
	h.emit()
	h.open = false
}

// emit writes the current bucket's two records.
func (h *EngineHook) emit() {
	start := sim.Time(h.bucket) * h.width
	end := start + h.width
	h.tr.Emit(Record{Start: start, End: end, Where: "engine",
		What: WhatQueueDepth, Value: float64(h.maxDepth), Unit: "events"})
	h.tr.Emit(Record{Start: start, End: end, Where: "engine",
		What: WhatDispatched, Value: float64(h.lastExec - h.baseExec), Unit: "events"})
}
