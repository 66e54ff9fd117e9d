package main

import (
	"math"
	"testing"

	"syncron"
)

// tee forwards every record to each of its tracers.
type tee []syncron.Tracer

func (t tee) Emit(r syncron.TraceRecord) {
	for _, tr := range t {
		tr.Emit(r)
	}
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestAggTracerMatchesCollectorViews traces one small contended run into both
// the aggregating tracer and a TraceCollector, and checks the aggregates
// against the public analysis views of the buffered records.
func TestAggTracerMatchesCollectorViews(t *testing.T) {
	agg := newAggTracer()
	col := syncron.NewTraceCollector()
	sys := syncron.New(syncron.Config{Scheme: syncron.SchemeSynCron, Units: 2, CoresPerUnit: 4,
		Seed: 7, Parallelism: syncron.ParallelismSerial, Tracer: tee{agg, col}})
	w, _ := syncron.LookupWorkload("lock")
	if _, err := w.Prepare(sys, syncron.WorkloadParams{Rounds: 20}); err != nil {
		t.Fatal(err)
	}
	rep := sys.Run()
	recs := col.Records()

	var dispatched float64
	for _, b := range syncron.QueueDepthSeries(recs, 50) {
		dispatched += b.Dispatched
	}
	if got := agg.stats("dispatched").sum; !near(got, dispatched) {
		t.Errorf("dispatched events: aggregated %v, QueueDepthSeries %v", got, dispatched)
	}
	var depths, depthSum float64
	for _, r := range recs {
		if r.What == "queue_depth" {
			depths++
			depthSum += r.Value
		}
	}
	if got := agg.mean("queue_depth"); depths == 0 || !near(got, depthSum/depths) {
		t.Errorf("mean queue depth: aggregated %v, records %v / %v", got, depthSum, depths)
	}

	lo, hi := recs[0].Start, recs[0].End
	for _, r := range recs {
		lo, hi = min(lo, r.Start), max(hi, r.End)
	}
	links := syncron.LinkUtilizationSeries(recs, 50)
	if len(links) == 0 || len(links) != len(agg.links) {
		t.Fatalf("links: aggregated %d, LinkUtilizationSeries %d", len(agg.links), len(links))
	}
	var busy float64
	for _, l := range links {
		a := agg.links[l.Link]
		if a == nil {
			t.Fatalf("link %s missing from the aggregate", l.Link)
		}
		if a.transfers != l.Transfers || a.bytes != l.Bytes || !near(a.busyPs, l.BusyFrac*float64(hi-lo)) {
			t.Errorf("link %s: aggregated %+v, view %+v", l.Link, *a, l)
		}
		busy += a.busyPs
	}

	var holds, waits int
	var holdPs, waitPs float64
	for _, row := range syncron.LockHoldTimes(recs) {
		holds += row.Holds
		waits += row.Waits
		holdPs += float64(row.Holds) * row.HoldMeanPs
		waitPs += float64(row.Waits) * row.WaitMeanPs
	}
	if holds == 0 || waits == 0 {
		t.Fatalf("run traced %d lock holds and %d waits, want some of each", holds, waits)
	}
	if s := agg.stats("lock_hold"); s.count != holds || !near(agg.meanSpan("lock_hold"), holdPs/float64(holds)) {
		t.Errorf("lock holds: aggregated %d / %v ps, LockHoldTimes %d / %v ps", s.count, s.spanPs, holds, holdPs)
	}
	if s := agg.stats("lock_wait"); s.count != waits || !near(agg.meanSpan("lock_wait"), waitPs/float64(waits)) {
		t.Errorf("lock waits: aggregated %d / %v ps, LockHoldTimes %d / %v ps", s.count, s.spanPs, waits, waitPs)
	}

	nlinks := len(links)
	agg.endRun(rep.Makespan)
	if len(agg.links) != 0 {
		t.Errorf("endRun kept %d links", len(agg.links))
	}
	if want := busy / (float64(nlinks) * float64(rep.Makespan)); !near(agg.linkBusyFrac(), want) {
		t.Errorf("link busy fraction %v, want %v", agg.linkBusyFrac(), want)
	}
}
