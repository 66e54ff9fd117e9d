package syncron_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"syncron"
)

// tracedSpec is a small real workload used by the end-to-end trace tests:
// big enough to exercise locks, cross-unit messages, and queue-depth
// variation, small enough to run in milliseconds.
func tracedSpec(tr syncron.Tracer) syncron.RunSpec {
	return syncron.RunSpec{
		Workload: "stack",
		Config: syncron.Config{
			Scheme:       syncron.SchemeSynCron,
			Units:        2,
			CoresPerUnit: 4,
			Seed:         7,
			Tracer:       tr,
		},
		Params: syncron.WorkloadParams{OpsPerCore: 20},
	}
}

// A traced run must produce a byte-identical trace when repeated — the
// tracing layer's core determinism contract, also enforced end-to-end by
// CI's trace-determinism job — covering every instrumented layer, in CSV
// that round-trips.
func TestTraceDeterministicCoversLayersAndRoundTrips(t *testing.T) {
	runCSV := func() (string, uint64) {
		col := syncron.NewTraceCollector()
		res := syncron.Execute(tracedSpec(col))
		if res.Err != "" {
			t.Fatalf("traced run failed: %s", res.Err)
		}
		var buf bytes.Buffer
		if err := col.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res.Events
	}
	firstCSV, firstEvents := runCSV()
	againCSV, againEvents := runCSV()

	if firstEvents != againEvents {
		t.Fatalf("event counts diverged: first %d, repeat %d", firstEvents, againEvents)
	}
	if firstCSV != againCSV {
		t.Fatal("repeated traced runs are not byte-identical")
	}

	// The trace must cover every instrumented layer: engine activity,
	// network transfers, and synchronization spans.
	for _, what := range []string{"queue_depth", "dispatched", "link_xfer", "lock_wait", "lock_hold"} {
		if !strings.Contains(firstCSV, ","+what+",") {
			t.Errorf("trace has no %s records", what)
		}
	}

	// And it must round-trip through the CSV schema.
	recs, err := syncron.ReadTraceCSV(strings.NewReader(firstCSV))
	if err != nil {
		t.Fatalf("ReadTraceCSV rejected collector output: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("trace is empty")
	}
	col2 := syncron.NewTraceCollector()
	for _, r := range recs {
		col2.Emit(r)
	}
	var buf2 bytes.Buffer
	if err := col2.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != firstCSV {
		t.Error("trace CSV did not round-trip byte-identically")
	}
}

// A traced run must report the same simulated results as an untraced run:
// the tracer is observation only.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	traced := syncron.Execute(tracedSpec(syncron.NewTraceCollector()))
	plain := syncron.Execute(tracedSpec(nil))
	if traced.Err != "" || plain.Err != "" {
		t.Fatalf("run failed: traced=%q plain=%q", traced.Err, plain.Err)
	}
	if traced.Makespan != plain.Makespan || traced.Events != plain.Events {
		t.Errorf("tracing changed the simulation: traced (%d ps, %d events) vs plain (%d ps, %d events)",
			traced.Makespan, traced.Events, plain.Makespan, plain.Events)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// QueueDepthSeries rebuckets engine records into uniform slices: max-merge
// for depth, overlap-proportional split for dispatched counts, untouched
// slices omitted. Hand-computed fixture over a 4-slice horizon of [0, 400).
func TestQueueDepthSeriesFixture(t *testing.T) {
	recs := []syncron.TraceRecord{
		{Start: 0, End: 100, Where: "engine", What: "queue_depth", Value: 5, Unit: "events"},
		{Start: 0, End: 100, Where: "engine", What: "dispatched", Value: 8, Unit: "events"},
		{Start: 100, End: 200, Where: "engine", What: "queue_depth", Value: 9, Unit: "events"},
		// Spans two slices: dispatched splits 50/50, depth max-merges into both.
		{Start: 100, End: 300, Where: "engine", What: "dispatched", Value: 10, Unit: "events"},
		// Non-engine records extend the horizon but never touch a slice.
		{Start: 350, End: 400, Where: "var.0xa", What: "lock_hold", Value: 50, Unit: "ps"},
	}
	got := syncron.QueueDepthSeries(recs, 4)
	want := []syncron.QueueDepthBucket{
		{Start: 0, End: 100, MaxDepth: 5, Dispatched: 8},
		{Start: 100, End: 200, MaxDepth: 9, Dispatched: 5},
		{Start: 200, End: 300, MaxDepth: 0, Dispatched: 5},
		// Slice [300, 400) has no engine record and is omitted.
	}
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Start != w.Start || g.End != w.End || g.MaxDepth != w.MaxDepth || !almostEq(g.Dispatched, w.Dispatched) {
			t.Errorf("bucket %d: got %+v, want %+v", i, g, w)
		}
	}
}

// LinkUtilizationSeries aggregates link_xfer spans per link: busy time as a
// fraction of the horizon, and the busiest-slice fraction exposing bursts.
// Hand-computed fixture over a 2-slice horizon of [0, 200).
func TestLinkUtilizationSeriesFixture(t *testing.T) {
	recs := []syncron.TraceRecord{
		{Start: 0, End: 50, Where: "link.0-1", What: "link_xfer", Value: 64, Unit: "bytes"},
		{Start: 150, End: 200, Where: "link.0-1", What: "link_xfer", Value: 64, Unit: "bytes"},
		// Straddles the slice boundary: 20 ps of busy time in each slice.
		{Start: 80, End: 120, Where: "link.1-0", What: "link_xfer", Value: 32, Unit: "bytes"},
	}
	got := syncron.LinkUtilizationSeries(recs, 2)
	want := []syncron.LinkUtilization{
		// 50 ps busy in each 100 ps slice: BusyFrac 100/200, PeakFrac 50/100.
		{Link: "link.0-1", Transfers: 2, Bytes: 128, BusyFrac: 0.5, PeakFrac: 0.5},
		// 40 ps busy total, 20 ps in the busiest slice.
		{Link: "link.1-0", Transfers: 1, Bytes: 32, BusyFrac: 0.2, PeakFrac: 0.2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d links, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Link != w.Link || g.Transfers != w.Transfers || !almostEq(g.Bytes, w.Bytes) ||
			!almostEq(g.BusyFrac, w.BusyFrac) || !almostEq(g.PeakFrac, w.PeakFrac) {
			t.Errorf("link %d: got %+v, want %+v", i, g, w)
		}
	}
}

// LockHoldTimes computes per-variable hold/wait distributions with
// nearest-rank p95. Hand-computed fixture: var.0xa has both span kinds,
// var.0xb waits only; rows sort by variable name.
func TestLockHoldTimesFixture(t *testing.T) {
	recs := []syncron.TraceRecord{
		{Start: 0, End: 100, Where: "var.0xa", What: "lock_hold", Value: 100, Unit: "ps"},
		{Start: 200, End: 500, Where: "var.0xa", What: "lock_hold", Value: 300, Unit: "ps"},
		{Start: 600, End: 800, Where: "var.0xa", What: "lock_hold", Value: 200, Unit: "ps"},
		{Start: 150, End: 200, Where: "var.0xa", What: "lock_wait", Value: 50, Unit: "ps"},
		{Start: 0, End: 10, Where: "var.0xb", What: "lock_wait", Value: 10, Unit: "ps"},
		{Start: 20, End: 50, Where: "var.0xb", What: "lock_wait", Value: 30, Unit: "ps"},
		// Other record kinds are ignored.
		{Start: 0, End: 100, Where: "engine", What: "queue_depth", Value: 4, Unit: "events"},
	}
	got := syncron.LockHoldTimes(recs)
	want := []syncron.LockHoldRow{
		// holds [100, 200, 300]: mean 200, p95 = nearest-rank ceil(0.95*3)=3rd -> 300.
		{Var: "var.0xa", Holds: 3, Waits: 1,
			HoldMeanPs: 200, HoldP95Ps: 300, HoldMaxPs: 300,
			WaitMeanPs: 50, WaitP95Ps: 50, WaitMaxPs: 50},
		// waits [10, 30]: mean 20, p95 = ceil(0.95*2)=2nd -> 30.
		{Var: "var.0xb", Holds: 0, Waits: 2,
			WaitMeanPs: 20, WaitP95Ps: 30, WaitMaxPs: 30},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], w)
		}
	}
}
