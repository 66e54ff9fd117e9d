package sim

import "testing"

// TestGaugeNonAdvancingTime checks that re-setting a gauge at the same
// timestamp replaces the value without accumulating any weighted span: the
// time-weighted mean must only see the value that was actually held.
func TestGaugeNonAdvancingTime(t *testing.T) {
	var g Gauge
	g.Set(0, 10)
	g.Set(0, 50) // same instant: replaces, holds no time
	g.Set(10, 0) // value 50 held for 10
	if m := g.Mean(); m != 50 {
		t.Fatalf("mean = %f, want 50 (the value actually held)", m)
	}
	if g.Max() != 50 {
		t.Fatalf("max = %f, want 50", g.Max())
	}
}

// TestGaugeMeanBeforeAnySpan checks Mean before any time has elapsed: it
// must report the current value, not divide by zero.
func TestGaugeMeanBeforeAnySpan(t *testing.T) {
	var g Gauge
	if m := g.Mean(); m != 0 {
		t.Fatalf("zero-value gauge mean = %f, want 0", m)
	}
	g.Set(0, 7)
	if m := g.Mean(); m != 7 {
		t.Fatalf("mean before any span = %f, want the current value 7", m)
	}
	if g.Value() != 7 {
		t.Fatalf("value = %f, want 7", g.Value())
	}
}
