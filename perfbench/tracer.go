package main

import "syncron"

// spanAgg sums the records of one What: how many, their values, and the
// simulated time they span.
type spanAgg struct {
	count  int
	sum    float64
	spanPs float64
}

// linkAgg is one inter-unit link's traffic over the current run.
type linkAgg struct {
	transfers int
	bytes     float64
	busyPs    float64
}

// aggTracer is a streaming syncron.Tracer: it keeps per-What sums and
// per-link busy time instead of buffering records, so a pass of ten million
// events traces in constant memory. Links are folded into the link
// utilization totals at the end of every run (endRun).
type aggTracer struct {
	what  map[string]*spanAgg
	links map[string]*linkAgg

	// Totals over ended runs: summed link busy time, and summed capacity
	// (links that carried traffic x the run's makespan).
	linkBusyPs, linkCapacityPs float64
}

func newAggTracer() *aggTracer {
	return &aggTracer{what: map[string]*spanAgg{}, links: map[string]*linkAgg{}}
}

// Emit implements syncron.Tracer.
func (a *aggTracer) Emit(r syncron.TraceRecord) {
	s := a.what[r.What]
	if s == nil {
		s = &spanAgg{}
		a.what[r.What] = s
	}
	s.count++
	s.sum += r.Value
	s.spanPs += float64(r.End - r.Start)
	if r.What == "link_xfer" {
		l := a.links[r.Where]
		if l == nil {
			l = &linkAgg{}
			a.links[r.Where] = l
		}
		l.transfers++
		l.bytes += r.Value
		l.busyPs += float64(r.End - r.Start)
	}
}

// endRun folds the run's link traffic into the utilization totals.
func (a *aggTracer) endRun(makespan syncron.Time) {
	for name, l := range a.links {
		a.linkBusyPs += l.busyPs
		a.linkCapacityPs += float64(makespan)
		delete(a.links, name)
	}
}

// stats returns the sums of one What (zero if it never occurred).
func (a *aggTracer) stats(what string) spanAgg {
	if s := a.what[what]; s != nil {
		return *s
	}
	return spanAgg{}
}

// mean returns the mean record value of one What, 0 if it never occurred.
func (a *aggTracer) mean(what string) float64 {
	s := a.stats(what)
	return ratio(s.sum, float64(s.count))
}

// meanSpan returns the mean simulated span of one What in picoseconds, 0 if
// it never occurred.
func (a *aggTracer) meanSpan(what string) float64 {
	s := a.stats(what)
	return ratio(s.spanPs, float64(s.count))
}

// linkBusyFrac is the busy share of the links that carried traffic, over
// the runs ended so far.
func (a *aggTracer) linkBusyFrac() float64 { return ratio(a.linkBusyPs, a.linkCapacityPs) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
