package sim

import (
	"testing"
	"testing/quick"
)

func TestClockConversions(t *testing.T) {
	core := NewClock(2500) // 2.5 GHz
	if core.Period != 400*Picosecond {
		t.Fatalf("2.5GHz period = %v, want 400ps", core.Period)
	}
	se := NewClock(1000)
	if se.Period != 1000*Picosecond {
		t.Fatalf("1GHz period = %v, want 1ns", se.Period)
	}
	if got := core.Cycles(10); got != 4*Nanosecond {
		t.Fatalf("10 cycles @2.5GHz = %v, want 4ns", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func(Time) { order = append(order, 3) })
	e.Schedule(10, func(Time) { order = append(order, 1) })
	e.Schedule(20, func(Time) { order = append(order, 2) })
	// Same-timestamp events run in scheduling order.
	e.Schedule(20, func(Time) { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(5, func(Time) {
		e.Schedule(e.Now()+5, func(Time) {
			hits++
			if e.Now() != 10 {
				t.Errorf("nested event at %v, want 10", e.Now())
			}
		})
	})
	e.Run()
	if hits != 1 {
		t.Fatal("nested event did not run")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.Schedule(5, func(Time) {})
	})
	e.Run()
}

// TestMaxEventsGuard checks the runaway guard: a self-rescheduling event
// panics the run after exactly MaxEvents+1 dispatches.
func TestMaxEventsGuard(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		e := NewEngine()
		e.MaxEvents = 10
		var loop func(Time)
		loop = func(Time) { e.Schedule(e.Now()+1, loop) }
		e.Schedule(e.Now()+1, loop)
		defer func() {
			if recover() == nil {
				t.Error("Run must panic when MaxEvents is exceeded")
			}
			if e.Executed != e.MaxEvents+1 {
				t.Errorf("executed %d events, want MaxEvents+1 = %d", e.Executed, e.MaxEvents+1)
			}
		}()
		e.Run()
	})
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if err := quick.Check(func(seed uint64, n uint16) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		v := r.Intn(int(n))
		return v >= 0 && v < int(n)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestGaugeTimeWeightedMean(t *testing.T) {
	var g Gauge
	g.Set(0, 10)
	g.Set(10, 20) // value 10 held for 10
	g.Set(30, 0)  // value 20 held for 20
	// mean = (10*10 + 20*20) / 30 = 16.67
	if m := g.Mean(); m < 16.6 || m > 16.7 {
		t.Fatalf("mean = %f, want ~16.67", m)
	}
	if g.Max() != 20 {
		t.Fatalf("max = %f, want 20", g.Max())
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:  "500ps",
		3 * Nanosecond:    "3.000ns",
		2500 * Nanosecond: "2.500us",
		3 * Millisecond:   "3.000ms",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}
