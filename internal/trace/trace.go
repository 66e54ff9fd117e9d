// Package trace is the time-resolved tracing layer of the simulator: a
// nil-by-default Tracer interface, a generic record schema modeled on akita
// PerfAnalyzer's (start, end, where, what, value, unit) tuples, and a
// buffered, allocation-pooled CSV writer.
//
// # Zero overhead when disabled
//
// Every hook point in the model layers is branch-guarded on a nil tracer
// (`if tr := x.tracer; tr != nil { ... }`), so the disabled path costs one
// predictable branch and zero allocations — pinned by
// internal/sim's TestEngineSteadyStateAllocFreeTracerNil and the CI perf
// gate. Enabled-path cost is measured by perfbench's `--trace 1` pass
// (`trace.overhead_frac`: traced over plain run time, minus one).
//
// # Determinism
//
// Trace output must be byte-identical across repeated runs. Two mechanisms
// guarantee that:
//
//   - every hook point fires on the engine goroutine, from inside the
//     deterministic event stream: protocol layers, cross-unit network
//     transfers, and the engine's dispatch hook (sim.Hook), which fires from
//     the dispatch loop itself. The per-access hot paths (L1 hits, intra-unit
//     crossbar traversals) are deliberately untraced — their volume would
//     dwarf the signal;
//   - the Collector commits records in a total deterministic order: the CSV
//     writer sorts by the full (start, end, where, what, value, unit) tuple
//     before emission. Identical record multisets therefore serialize to
//     identical bytes regardless of emission order.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"syncron/internal/sim"
)

// Record is one trace tuple in the generic PerfAnalyzer-style schema.
// Where and What must not contain commas or newlines (they are emitted
// unquoted); all emitters use fixed or precomputed names.
type Record struct {
	Start sim.Time // span start (ps)
	End   sim.Time // span end (ps); == Start for point samples
	Where string   // component the record is about ("engine", "link.0-1", "var.0x...")
	What  string   // metric name ("queue_depth", "link_xfer", "lock_hold", ...)
	Value float64  // metric value
	Unit  string   // unit of Value ("events", "bytes", "ps")
}

// Well-known What values emitted by the built-in hook points.
const (
	WhatQueueDepth  = "queue_depth"  // engine: max pending events in a bucket
	WhatDispatched  = "dispatched"   // engine: events executed in a bucket
	WhatLinkXfer    = "link_xfer"    // network: one message's busy window on a link
	WhatLockWait    = "lock_wait"    // program: lock acquire -> grant span
	WhatLockHold    = "lock_hold"    // program: lock grant -> release span
	WhatBarrierWait = "barrier_wait" // program: barrier arrive -> release span
	WhatSemWait     = "sem_wait"     // program: semaphore P() wait span
	WhatCondWait    = "cond_wait"    // program: condition-variable wait span
	WhatBankBusy    = "bank_busy"    // mem (bank model): one access's occupancy of a bank
	WhatRowHit      = "row_hit"      // mem (bank model): run-total open-row hits per stack
	WhatRowMiss     = "row_miss"     // mem (bank model): run-total row misses per stack
)

// compareRecords is the total order trace output is committed in. Every
// field participates, so ties are only possible between fully identical
// records and the sort is deterministic for a fixed record multiset.
func compareRecords(a, b Record) int {
	switch {
	case a.Start != b.Start:
		return cmpOrd(a.Start, b.Start)
	case a.End != b.End:
		return cmpOrd(a.End, b.End)
	case a.Where != b.Where:
		return strings.Compare(a.Where, b.Where)
	case a.What != b.What:
		return strings.Compare(a.What, b.What)
	case a.Value != b.Value:
		return cmpOrd(a.Value, b.Value)
	default:
		return strings.Compare(a.Unit, b.Unit)
	}
}

func cmpOrd[T sim.Time | float64](a, b T) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// Tracer receives trace records. Implementations are driven only from the
// engine goroutine (see the package comment), so they need no locking.
type Tracer interface {
	Emit(r Record)
}

// Collector is the standard Tracer: an in-memory record buffer with a
// deterministic CSV emitter. The buffer and the writer's row scratch are
// pooled — Reset keeps their capacity, so one Collector can trace many runs
// with a single steady-state allocation footprint.
type Collector struct {
	recs   []Record
	sorted bool
	row    []byte // pooled per-row encoding scratch for WriteCSV
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Tracer.
func (c *Collector) Emit(r Record) {
	c.recs = append(c.recs, r)
	c.sorted = false
}

// Len returns the number of buffered records.
func (c *Collector) Len() int { return len(c.recs) }

// Reset drops all buffered records but keeps the backing storage, so the
// Collector can be reused across runs without reallocating.
func (c *Collector) Reset() {
	c.recs = c.recs[:0]
	c.sorted = true
}

// Records returns the buffered records in the deterministic commit order
// (sorted by the full record tuple). The returned slice is the Collector's
// own buffer; it is valid until the next Emit or Reset.
func (c *Collector) Records() []Record {
	if !c.sorted {
		slices.SortFunc(c.recs, compareRecords)
		c.sorted = true
	}
	return c.recs
}

// Header is the CSV header line (without trailing newline) of the trace
// schema. It is pinned by a golden test; changing it is a trace-format
// version change.
const Header = "start_ps,end_ps,where,what,value,unit"

// WriteCSV writes the buffered records as CSV in deterministic commit order:
// the header line, then one line per record. Output is byte-identical for
// identical record multisets regardless of emission order.
func (c *Collector) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(Header)
	bw.WriteByte('\n')
	for _, r := range c.Records() {
		c.row = AppendRecord(c.row[:0], r)
		if _, err := bw.Write(c.row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendRecord appends r's CSV encoding (including the trailing newline) to
// b. Times are integer picoseconds; Value uses strconv's shortest 'g'
// round-trip form, so encoding is platform-independent and deterministic.
func AppendRecord(b []byte, r Record) []byte {
	b = strconv.AppendInt(b, int64(r.Start), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.End), 10)
	b = append(b, ',')
	b = append(b, r.Where...)
	b = append(b, ',')
	b = append(b, r.What...)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.Value, 'g', -1, 64)
	b = append(b, ',')
	b = append(b, r.Unit...)
	b = append(b, '\n')
	return b
}

// ReadCSV parses a trace written by WriteCSV back into records. It verifies
// the header and every field, so tests and smoke scripts can assert
// well-formedness by round-tripping.
func ReadCSV(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input (missing header %q)", Header)
	}
	if sc.Text() != Header {
		return nil, fmt.Errorf("trace: bad header %q, want %q", sc.Text(), Header)
	}
	var recs []Record
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != 6 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 6", line, len(fields))
		}
		start, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad start_ps %q: %v", line, fields[0], err)
		}
		end, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad end_ps %q: %v", line, fields[1], err)
		}
		val, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad value %q: %v", line, fields[4], err)
		}
		recs = append(recs, Record{
			Start: sim.Time(start), End: sim.Time(end),
			Where: fields[2], What: fields[3], Value: val, Unit: fields[5],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
