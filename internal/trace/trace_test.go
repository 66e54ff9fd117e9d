package trace

import (
	"bytes"
	"strings"
	"testing"

	"syncron/internal/sim"
)

// The CSV schema is a published format: smoke scripts, CI diffs, and external
// tooling parse it. Pinning the header and the exact encoding of a known
// record set makes any schema change a deliberate, test-visible act.
func TestCSVSchemaGolden(t *testing.T) {
	if Header != "start_ps,end_ps,where,what,value,unit" {
		t.Fatalf("trace CSV header changed: %q", Header)
	}
	c := NewCollector()
	c.Emit(Record{Start: 100, End: 200, Where: "engine", What: WhatQueueDepth, Value: 7, Unit: "events"})
	c.Emit(Record{Start: 0, End: 16000, Where: "var.0x40", What: WhatLockWait, Value: 16000, Unit: "ps"})
	c.Emit(Record{Start: 100, End: 164, Where: "link.0-1", What: WhatLinkXfer, Value: 64, Unit: "bytes"})
	c.Emit(Record{Start: 100, End: 164, Where: "link.0-1", What: WhatLinkXfer, Value: 0.5, Unit: "bytes"})

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `start_ps,end_ps,where,what,value,unit
0,16000,var.0x40,lock_wait,16000,ps
100,164,link.0-1,link_xfer,0.5,bytes
100,164,link.0-1,link_xfer,64,bytes
100,200,engine,queue_depth,7,events
`
	if got := buf.String(); got != want {
		t.Errorf("trace CSV encoding changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// WriteCSV commits records in the total (start, end, where, what, value,
// unit) order, so identical record multisets serialize identically no matter
// the emission order.
func TestWriteCSVOrderIndependent(t *testing.T) {
	recs := []Record{
		{Start: 5, End: 9, Where: "b", What: "y", Value: 2, Unit: "ps"},
		{Start: 5, End: 9, Where: "a", What: "z", Value: 1, Unit: "ps"},
		{Start: 1, End: 3, Where: "c", What: "x", Value: 3, Unit: "ps"},
		{Start: 5, End: 7, Where: "a", What: "x", Value: 4, Unit: "ps"},
	}
	emit := func(order []int) string {
		c := NewCollector()
		for _, i := range order {
			c.Emit(recs[i])
		}
		var buf bytes.Buffer
		if err := c.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := emit([]int{0, 1, 2, 3})
	b := emit([]int{3, 2, 1, 0})
	if a != b {
		t.Errorf("emission order leaked into CSV:\n%s\nvs:\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header + 4 records, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1,3,c") || !strings.HasPrefix(lines[2], "5,7,a") ||
		!strings.HasPrefix(lines[3], "5,9,a") || !strings.HasPrefix(lines[4], "5,9,b") {
		t.Errorf("records not in commit order:\n%s", a)
	}
}

func TestReadCSVRoundTrip(t *testing.T) {
	c := NewCollector()
	want := []Record{
		{Start: 0, End: 100000, Where: "engine", What: WhatDispatched, Value: 104, Unit: "events"},
		{Start: 42, End: 106, Where: "link.1-0", What: WhatLinkXfer, Value: 64, Unit: "bytes"},
		{Start: 7, End: 7, Where: "var.0xff", What: WhatLockHold, Value: 0, Unit: "ps"},
	}
	for _, r := range want {
		c.Emit(r)
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip returned %d records, want %d", len(got), len(want))
	}
	// ReadCSV returns commit order; compare as multisets via re-encoding.
	c2 := NewCollector()
	for _, r := range got {
		c2.Emit(r)
	}
	var buf2 bytes.Buffer
	c.Reset()
	for _, r := range want {
		c.Emit(r)
	}
	if err := c.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := c2.WriteCSV(&buf3); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != buf3.String() {
		t.Errorf("round-trip changed records:\n%s\nvs:\n%s", buf2.String(), buf3.String())
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad header", "a,b,c\n"},
		{"short line", Header + "\n1,2,a,b,3\n"},
		{"bad start", Header + "\nx,2,a,b,3,ps\n"},
		{"bad value", Header + "\n1,2,a,b,zzz,ps\n"},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ReadCSV accepted malformed input", tc.name)
		}
	}
}

// Reset must keep backing storage so a reused Collector reaches a zero-alloc
// steady state across runs.
func TestCollectorResetKeepsCapacity(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Emit(Record{Start: sim.Time(i), Where: "x", What: "y", Unit: "ps"})
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if cap(c.recs) < 100 {
		t.Errorf("Reset dropped capacity: %d", cap(c.recs))
	}
}

// EngineHook coalesces per-timestamp advances into fixed sim-time buckets:
// max depth per bucket, executed-delta per bucket, final partial bucket on
// Flush. Hand-computed fixture.
func TestEngineHookBucketing(t *testing.T) {
	c := NewCollector()
	h := NewEngineHook(c, 100)

	h.OnAdvance(0, 10, 5, 0)     // bucket 0
	h.OnAdvance(10, 50, 9, 3)    // bucket 0, deeper
	h.OnAdvance(50, 120, 4, 7)   // bucket 1 -> emits bucket 0 (depth 9, 7 events)
	h.OnAdvance(120, 130, 6, 8)  // bucket 1
	h.OnAdvance(130, 350, 2, 20) // bucket 3 -> emits bucket 1 (depth 6, 20-7=13 events)
	h.Flush(25)                  // emits bucket 3 (depth 2, 25-20=5 events)

	want := []Record{
		{Start: 0, End: 100, Where: "engine", What: WhatQueueDepth, Value: 9, Unit: "events"},
		{Start: 0, End: 100, Where: "engine", What: WhatDispatched, Value: 7, Unit: "events"},
		{Start: 100, End: 200, Where: "engine", What: WhatQueueDepth, Value: 6, Unit: "events"},
		{Start: 100, End: 200, Where: "engine", What: WhatDispatched, Value: 13, Unit: "events"},
		{Start: 300, End: 400, Where: "engine", What: WhatQueueDepth, Value: 2, Unit: "events"},
		{Start: 300, End: 400, Where: "engine", What: WhatDispatched, Value: 5, Unit: "events"},
	}
	got := c.Records()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(got), len(want), got)
	}
	// Compare as multisets (Records sorts by tuple, want is listed per bucket).
	cw := NewCollector()
	for _, r := range want {
		cw.Emit(r)
	}
	for i, w := range cw.Records() {
		if got[i] != w {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], w)
		}
	}

	// Flush resets the hook: a second run starts a fresh bucket sequence.
	c.Reset()
	h.OnAdvance(0, 20, 3, 0)
	h.Flush(2)
	got = c.Records()
	if len(got) != 2 || got[0].Value != 2 || got[1].Value != 3 {
		t.Errorf("after reset: %+v", got)
	}
}
