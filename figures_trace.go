package syncron

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// This file renders the time-resolved trace figure: a small dedicated grid
// re-run with a TraceCollector per run (Sweep results can be cached and
// shared, but a trace only exists if the simulation actually executes, so the
// traced grid bypasses the result cache entirely). Each run writes four CSV
// artifacts into FigureOptions.TraceDir —
//
//	<workload>.trace.csv        the raw trace (TraceCollector.WriteCSV)
//	<workload>.queue_depth.csv  QueueDepthSeries
//	<workload>.link_util.csv    LinkUtilizationSeries
//	<workload>.lock_holds.csv   LockHoldTimes
//
// — and contributes one summary row to the "trace" figure. Everything is
// deterministic for fixed options.

// traceWorkloads is the traced subset: the canonical lock microbenchmark, a
// contended data structure, and a time-series application that pressures the
// Synchronization Table.
var traceWorkloads = []string{"lock", "stack", "ts.air"}

// traceViewBuckets is the slice count of the rebucketed analysis views.
const traceViewBuckets = 50

// traceFigure runs the traced grid, writes the per-workload CSV artifacts
// into o.TraceDir, and returns the summary figure. o must be resolved
// (withDefaults).
func traceFigure(o FigureOptions) (*Figure, error) {
	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return nil, fmt.Errorf("syncron: creating trace dir: %w", err)
	}
	f := &Figure{
		ID:    "trace",
		Title: fmt.Sprintf("Time-resolved trace summaries under %s (full CSVs in the trace dir)", SchemeSynCron),
		Columns: []string{"workload", "records", "peak queue", "busiest link", "link busy",
			"lock vars", "hold p95 (ns)", "wait p95 (ns)"},
		Notes: "per-workload trace, queue-depth, link-utilization, and lock-hold CSVs are written " +
			"next to the figures; traced runs bypass the result cache",
	}
	for _, w := range registeredOnly(traceWorkloads) {
		col := NewTraceCollector()
		res := Execute(RunSpec{
			Workload: w,
			Config:   Config{Scheme: SchemeSynCron, Seed: o.BaseSeed, Tracer: col},
			Params:   WorkloadParams{Scale: o.Scale},
		})
		if res.Err != "" {
			return nil, fmt.Errorf("syncron: traced %s run failed: %s", w, res.Err)
		}
		recs := col.Records()
		if err := writeTraceArtifacts(o.TraceDir, w, col); err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, traceSummaryRow(w, recs))
	}
	return f, nil
}

// traceSummaryRow condenses one workload's trace into a figure row.
func traceSummaryRow(workload string, recs []TraceRecord) []string {
	peak := 0
	for _, b := range QueueDepthSeries(recs, traceViewBuckets) {
		if b.MaxDepth > peak {
			peak = b.MaxDepth
		}
	}
	busiestLink, busiest := "-", 0.0
	for _, l := range LinkUtilizationSeries(recs, traceViewBuckets) {
		if l.BusyFrac > busiest {
			busiestLink, busiest = l.Link, l.BusyFrac
		}
	}
	locks := LockHoldTimes(recs)
	var holdP95, waitP95 float64
	for _, l := range locks {
		if l.HoldP95Ps > holdP95 {
			holdP95 = l.HoldP95Ps
		}
		if l.WaitP95Ps > waitP95 {
			waitP95 = l.WaitP95Ps
		}
	}
	return []string{workload, fmt.Sprint(len(recs)), fmt.Sprint(peak),
		busiestLink, fmtPct(busiest), fmt.Sprint(len(locks)),
		fmtF1(holdP95 / 1e3), fmtF1(waitP95 / 1e3)}
}

// writeTraceArtifacts writes one traced run's four CSV files.
func writeTraceArtifacts(dir, workload string, col *TraceCollector) error {
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		return err
	}
	if err := writeTraceFile(dir, workload+".trace.csv", buf.Bytes()); err != nil {
		return err
	}
	recs := col.Records()

	buf.Reset()
	buf.WriteString("start_ps,end_ps,max_depth,dispatched\n")
	for _, b := range QueueDepthSeries(recs, traceViewBuckets) {
		fmt.Fprintf(&buf, "%d,%d,%d,%s\n", int64(b.Start), int64(b.End), b.MaxDepth, fmtG(b.Dispatched))
	}
	if err := writeTraceFile(dir, workload+".queue_depth.csv", buf.Bytes()); err != nil {
		return err
	}

	buf.Reset()
	buf.WriteString("link,transfers,bytes,busy_frac,peak_frac\n")
	for _, l := range LinkUtilizationSeries(recs, traceViewBuckets) {
		fmt.Fprintf(&buf, "%s,%d,%s,%s,%s\n", l.Link, l.Transfers,
			fmtG(l.Bytes), fmtG(l.BusyFrac), fmtG(l.PeakFrac))
	}
	if err := writeTraceFile(dir, workload+".link_util.csv", buf.Bytes()); err != nil {
		return err
	}

	buf.Reset()
	buf.WriteString("var,holds,waits,hold_mean_ps,hold_p95_ps,hold_max_ps,wait_mean_ps,wait_p95_ps,wait_max_ps\n")
	for _, r := range LockHoldTimes(recs) {
		fmt.Fprintf(&buf, "%s,%d,%d,%s,%s,%s,%s,%s,%s\n", r.Var, r.Holds, r.Waits,
			fmtG(r.HoldMeanPs), fmtG(r.HoldP95Ps), fmtG(r.HoldMaxPs),
			fmtG(r.WaitMeanPs), fmtG(r.WaitP95Ps), fmtG(r.WaitMaxPs))
	}
	return writeTraceFile(dir, workload+".lock_holds.csv", buf.Bytes())
}

func writeTraceFile(dir, name string, data []byte) error {
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return fmt.Errorf("syncron: writing trace artifact: %w", err)
	}
	return nil
}

// fmtG renders a float in strconv's shortest round-trip form, matching the
// raw trace's value encoding.
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
