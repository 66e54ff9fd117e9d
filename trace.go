package syncron

import (
	"io"

	"syncron/internal/trace"
)

// TraceRecord is one time-resolved trace tuple: a (start, end) span in
// simulated picoseconds, the component it is about (Where), the metric name
// (What), and a value with its unit. See internal/trace for the full schema
// and the built-in What values (queue_depth, dispatched, link_xfer,
// lock_wait, lock_hold, barrier_wait, sem_wait, cond_wait, and — under the
// bank DRAM model — bank_busy, row_hit, row_miss).
type TraceRecord = trace.Record

// Tracer receives trace records from a run. Attach one with WithTracer (or
// Config.Tracer); nil disables tracing at zero cost. Tracers are driven only
// from the engine goroutine, so implementations need no locking, and trace
// output is byte-identical across repeated runs.
type Tracer = trace.Tracer

// TraceCollector buffers trace records in memory and writes them as
// deterministic CSV (sorted by the full record tuple). Reset keeps backing
// storage, so one collector can trace many runs.
type TraceCollector = trace.Collector

// NewTraceCollector returns an empty TraceCollector.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// TraceCSVHeader is the header line of the trace CSV schema, pinned by a
// golden test.
const TraceCSVHeader = trace.Header

// ReadTraceCSV parses a trace CSV written by TraceCollector.WriteCSV,
// validating the header and every field.
func ReadTraceCSV(r io.Reader) ([]TraceRecord, error) { return trace.ReadCSV(r) }
