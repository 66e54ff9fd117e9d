package sim

import "testing"

// These tests pin the timing wheel's edges: where its window ends, how
// overflow events rejoin it, the sorted insert into a slot, and an engine
// reused after it drains. Each records the run order and compares it with
// the (at, seq) order written out by hand.

// window is the span the wheel holds ahead of the cursor's first instant.
const window = Time(wheelSlots << slotShift)

// orderLog records the ids of events as they run.
type orderLog struct {
	ids []int
	ats []Time
}

func (l *orderLog) ev(id int) func(Time) {
	return func(at Time) {
		l.ids = append(l.ids, id)
		l.ats = append(l.ats, at)
	}
}

func (l *orderLog) want(t *testing.T, ids ...int) {
	t.Helper()
	if len(l.ids) != len(ids) {
		t.Fatalf("ran %v at %v, want ids %v", l.ids, l.ats, ids)
	}
	for i := range ids {
		if l.ids[i] != ids[i] {
			t.Fatalf("ran %v at %v, want ids %v", l.ids, l.ats, ids)
		}
	}
}

// The last instant inside the window goes to the wheel and the first one
// past it to the overflow heap, from the start and after the cursor moves.
func TestWheelWindowEnd(t *testing.T) {
	e := NewEngine()
	var l orderLog
	e.Schedule(window, l.ev(2))
	e.Schedule(window-1, l.ev(1))
	if len(e.heap) != 1 || e.heap[0].at != window {
		t.Fatalf("overflow heap holds %v, want only the event at the window's end %v", e.heap, window)
	}
	e.Run()
	l.want(t, 1, 2)

	// The cursor is now the slot of window; its window ends one lap on.
	end := Time(e.cursor+wheelSlots) << slotShift
	e.Schedule(end, l.ev(4))
	e.Schedule(end-1, l.ev(3))
	e.Schedule(e.Now(), l.ev(0))
	if len(e.heap) != 1 || e.heap[0].at != end {
		t.Fatalf("overflow heap holds %v, want only the event at the window's end %v", e.heap, end)
	}
	e.Run()
	l.want(t, 1, 2, 0, 3, 4)
	if e.Now() != end {
		t.Fatalf("Run ended at %v, want %v", e.Now(), end)
	}
}

// An overflow event and a wheel event at the same instant: the overflow
// event was scheduled first, so it runs first once it has moved into the
// wheel, even though the other event went straight into the wheel.
func TestWheelOverflowTieRunsInSeqOrder(t *testing.T) {
	e := NewEngine()
	var l orderLog
	at := window + 100
	e.Schedule(at, l.ev(2)) // past the window: overflow heap
	e.Schedule(window-100, func(now Time) {
		// The cursor has moved to the slot of now, so at is inside the
		// window and this event goes straight into the wheel.
		e.Schedule(at, l.ev(3))
		if len(e.heap) != 1 {
			t.Errorf("overflow heap holds %d events, want the earlier one at %v", len(e.heap), at)
		}
		l.ev(1)(now)
	})
	if len(e.heap) != 1 {
		t.Fatalf("overflow heap holds %d events, want 1", len(e.heap))
	}
	e.Run()
	l.want(t, 1, 2, 3)
}

// An event earlier than its slot's last event is placed by a walk from the
// slot's head: before a later head, between two nodes, and after every node
// with the same at.
func TestWheelSortedInsert(t *testing.T) {
	e := NewEngine()
	var l orderLog
	base := Time(3 << slotShift) // every event below shares this slot
	e.Schedule(base+300, l.ev(6))
	e.Schedule(base+100, l.ev(2)) // before the head
	e.Schedule(base+200, l.ev(5)) // between two nodes
	e.Schedule(base+100, l.ev(3)) // tie: after the earlier base+100
	e.Schedule(base, l.ev(1))     // before the head again
	e.Schedule(base+100, l.ev(4)) // tie with two nodes
	e.Schedule(base+300, l.ev(7)) // tie with the tail: appended
	e.Run()
	l.want(t, 1, 2, 3, 4, 5, 6, 7)
	want := []Time{base, base + 100, base + 100, base + 100, base + 200, base + 300, base + 300}
	for i, at := range want {
		if l.ats[i] != at {
			t.Fatalf("event %d ran at %v, want %v", l.ids[i], l.ats[i], at)
		}
	}
}

// An engine that drained keeps working: Run returns the last event's time,
// and events scheduled afterwards, now and far ahead, run in order.
func TestWheelRunDrainScheduleRun(t *testing.T) {
	e := NewEngine()
	var l orderLog
	e.Schedule(700, l.ev(1))
	e.Schedule(5*window, l.ev(2))
	if end := e.Run(); end != 5*window {
		t.Fatalf("first Run returned %v, want %v", end, 5*window)
	}
	if e.Run() != 5*window {
		t.Fatal("Run on a drained engine moved the clock")
	}
	now := e.Now()
	e.Schedule(now+3*window, l.ev(5))
	e.Schedule(now+1, l.ev(4))
	e.Schedule(now, l.ev(3))
	if end := e.Run(); end != now+3*window {
		t.Fatalf("second Run returned %v, want %v", end, now+3*window)
	}
	l.want(t, 1, 2, 3, 4, 5)
	if e.Executed != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed)
	}
}

// A same-time event runs after every event of its timestamp and before any
// later one, whether the current slot holds a later event (the sorted
// insert) or is empty (the direct path). Run's exit and its search for the
// next slot look at the queues themselves, so resetting Executed mid-run
// does not end the run early.
func TestWheelSameTime(t *testing.T) {
	e := NewEngine()
	var l orderLog
	e.Schedule(10, func(at Time) {
		l.ev(1)(at)
		e.Schedule(at, func(at Time) {
			l.ev(3)(at)
			e.Schedule(at, l.ev(4))
		})
	})
	e.Schedule(10, l.ev(2))
	e.Schedule(11, func(at Time) {
		l.ev(5)(at)
		e.Schedule(at, func(at Time) {
			l.ev(6)(at)
			e.Executed = 0
			e.Schedule(at+2*window, l.ev(7))
		})
	})
	if end := e.Run(); end != 11+2*window {
		t.Fatalf("Run returned %v, want %v", end, 11+2*window)
	}
	l.want(t, 1, 2, 3, 4, 5, 6, 7)
}
