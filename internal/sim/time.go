// Package sim provides the discrete-event simulation engine that underlies
// the NDP system model: a picosecond-resolution clock, an event queue that is
// a timing wheel for near-future events with a binary heap for the rest,
// deterministic pseudo-random numbers, and small statistics helpers.
package sim

import "fmt"

// Time is a simulation timestamp in picoseconds. Using picoseconds lets the
// engine mix clock domains exactly (2.5 GHz cores, 1 GHz SEs, DRAM timing in
// nanoseconds) without rounding drift.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Clock describes a fixed-frequency clock domain.
type Clock struct {
	Period Time // duration of one cycle
}

// NewClock returns a clock with the given frequency in MHz.
func NewClock(mhz int64) Clock {
	if mhz <= 0 {
		panic(fmt.Sprintf("sim: invalid clock frequency %d MHz", mhz))
	}
	return Clock{Period: Time(1_000_000 / mhz * int64(Picosecond))}
}

// Cycles converts a cycle count into a duration.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}
