package sim

// Resource is a shared resource booked for one holder at a time: a crossbar
// port, a serial link, a DRAM channel's data bus or a bank's command path.
// Bookings are served in the order they are made: each starts when the
// resource frees up from the previously made booking, even if that booking
// starts later than this one's request time.
type Resource struct{ free Time }

// Book holds r for d from the first moment at or after t that r is free, and
// returns that start.
func (r *Resource) Book(t, d Time) (start Time) {
	start = max(t, r.free)
	r.free = start + d
	return start
}
