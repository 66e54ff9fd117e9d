package sim

import "testing"

func TestResourceBook(t *testing.T) {
	type booking struct{ t, d, start Time }
	for _, c := range []struct {
		name     string
		bookings []booking
	}{
		{"idle starts at t", []booking{{t: 5, d: 3, start: 5}}},
		{"behind a busy booking starts at its end", []booking{
			{t: 0, d: 10, start: 0},
			{t: 4, d: 2, start: 10},
			{t: 20, d: 1, start: 20},
		}},
		{"zero length holds nothing", []booking{
			{t: 7, d: 0, start: 7},
			{t: 7, d: 4, start: 7},
			{t: 7, d: 0, start: 11},
		}},
		// Call order, not request time, decides service: a booking made
		// later for an earlier t still waits behind the earlier-made one,
		// though the resource is idle before that one starts. Booking in
		// arrival order (ROADMAP item 2(b), step 2) would change this case.
		{"a later call for an earlier t waits", []booking{
			{t: 100, d: 10, start: 100},
			{t: 20, d: 5, start: 110},
		}},
	} {
		var r Resource
		for i, b := range c.bookings {
			if got := r.Book(b.t, b.d); got != b.start {
				t.Errorf("%s: booking %d (t=%d, d=%d) starts at %d, want %d",
					c.name, i, b.t, b.d, got, b.start)
			}
		}
	}
}
