package sim

import (
	"math"
	"testing"
)

// lexBefore is the plain lexicographic (at, seq) order that event.before
// computes without branches.
func lexBefore(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func TestEventBeforeTable(t *testing.T) {
	const maxT = Time(math.MaxInt64)
	const maxS = uint64(math.MaxUint64)
	for _, c := range []struct {
		a, b event
		want bool
	}{
		{event{at: 5, seq: 1}, event{at: 5, seq: 2}, true},
		{event{at: 5, seq: 2}, event{at: 5, seq: 1}, false},
		{event{at: 5, seq: 3}, event{at: 5, seq: 3}, false},
		{event{at: 0, seq: 0}, event{at: 0, seq: 1}, true},
		{event{at: 0, seq: maxS}, event{at: 1, seq: 0}, true},
		{event{at: 1, seq: 0}, event{at: 0, seq: maxS}, false},
		{event{at: 0, seq: 0}, event{at: maxT, seq: 0}, true},
		{event{at: maxT, seq: 0}, event{at: 0, seq: maxS}, false},
		{event{at: maxT, seq: 0}, event{at: maxT, seq: maxS}, true},
		{event{at: maxT, seq: maxS}, event{at: maxT, seq: maxS}, false},
		{event{at: maxT - 1, seq: maxS}, event{at: maxT, seq: 0}, true},
		{event{at: maxT, seq: maxS}, event{at: 0, seq: 0}, false},
		{event{at: 0, seq: maxS}, event{at: 0, seq: 0}, false},
	} {
		if got := c.a.before(c.b); got != c.want {
			t.Errorf("(%d, %d).before(%d, %d) = %v, want %v", c.a.at, c.a.seq, c.b.at, c.b.seq, got, c.want)
		}
		if got := lexBefore(c.a, c.b); got != c.want {
			t.Errorf("table row (%d, %d) vs (%d, %d) disagrees with the lexicographic order", c.a.at, c.a.seq, c.b.at, c.b.seq)
		}
	}
}

// TestEventBeforeRandom compares before with the lexicographic order on
// seeded pairs drawn to hit equal timestamps, equal seqs and both extremes.
func TestEventBeforeRandom(t *testing.T) {
	rng := NewRNG(1)
	ats := []Time{0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	seqs := []uint64{0, 1, 2, math.MaxUint64 - 1, math.MaxUint64}
	pick := func() event {
		ev := event{at: Time(rng.Uint64() >> 1), seq: rng.Uint64()}
		switch rng.Intn(3) {
		case 0:
			ev.at = ats[rng.Intn(len(ats))]
		case 1:
			ev.at = Time(rng.Intn(4)) // small range: many equal timestamps
		}
		switch rng.Intn(3) {
		case 0:
			ev.seq = seqs[rng.Intn(len(seqs))]
		case 1:
			ev.seq = uint64(rng.Intn(4))
		}
		return ev
	}
	for i := 0; i < 200000; i++ {
		a, b := pick(), pick()
		if got, want := a.before(b), lexBefore(a, b); got != want {
			t.Fatalf("(%d, %d).before(%d, %d) = %v, want %v", a.at, a.seq, b.at, b.seq, got, want)
		}
		if got := a.borrow(b); got > 1 {
			t.Fatalf("(%d, %d).borrow(%d, %d) = %d, want 0 or 1", a.at, a.seq, b.at, b.seq, got)
		}
	}
}
