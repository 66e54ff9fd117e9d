package sim

import (
	"fmt"
	"math/bits"
)

// event is one scheduled callback. The queues store events by value — the
// ordering keys (at, seq) sit next to the callback, so heapify never chases a
// pointer and scheduling allocates nothing once the queues have grown.
type event struct {
	at  Time
	seq uint64
	fn  func(Time)
}

// before orders events by (at, seq): timestamp first, schedule order within
// one timestamp.
func (a event) before(b event) bool { return a.borrow(b) != 0 }

// borrow is 1 if a runs before b and 0 otherwise: the borrow out of the
// 128-bit subtraction (at, seq) - (b.at, b.seq). Time is never negative, so
// comparing at as unsigned is exact, and the result needs no data-dependent
// branch.
func (a event) borrow(b event) uint64 {
	_, lo := bits.Sub64(a.seq, b.seq, 0)
	_, hi := bits.Sub64(uint64(a.at), uint64(b.at), lo)
	return hi
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs on the engine's goroutine.
//
// The hot path is allocation-free in steady state: both queues store events
// by value and reuse their capacity, and events scheduled at the current
// timestamp (the zero-delay handoff pattern of the program layer) bypass the
// heap through a FIFO fast path.
type Engine struct {
	now Time
	seq uint64

	heap    []event // time-ordered binary heap of future events
	nowQ    []event // FIFO of events scheduled at exactly e.now
	nowHead int     // first undispatched index into nowQ

	hook Hook // nil by default; see SetHook

	// Executed counts events run since construction; useful in tests, as a
	// runaway guard, and as the events/sec numerator of macro-benchmarks.
	Executed uint64

	// MaxEvents aborts the run (with a panic) when exceeded; 0 means no limit.
	MaxEvents uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at time at; fn receives that timestamp. Scheduling in the
// past panics: the model has a causality bug that must not be masked.
//
// Events scheduled at exactly the current time skip the priority queue: they
// are appended to a same-timestamp FIFO, which preserves the global (at, seq)
// order because every event already in the heap at this timestamp was
// scheduled earlier (smaller seq) and later heap arrivals are strictly in the
// future. A future event enters the heap by sifting the hole up from the
// tail to its place; the sift stays inline here because, as a function of
// its own, it exceeds the compiler's inlining budget and costs every
// schedule a call.
func (e *Engine) Schedule(at Time, fn func(Time)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev := event{at: at, seq: e.seq, fn: fn}
	if at == e.now {
		e.nowQ = append(e.nowQ, ev)
		return
	}
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// pop removes and returns the heap's minimum. The vacated tail entry is
// zeroed so its callback can be collected. The sift adds the borrow to the
// left child's index to reach the smaller child, so choosing it takes no
// data-dependent branch.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n {
				c += int(h[c+1].borrow(h[c]))
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.heap = h
	return top
}

// Run executes events in (at, seq) order until the queue drains and returns
// the final simulation time.
//
// The same-timestamp FIFO only ever holds events at e.now, and every heap
// event at e.now was scheduled before them, so the FIFO head runs next unless
// the heap top shares its timestamp. Only a heap pop can advance the clock.
func (e *Engine) Run() Time {
	for {
		var ev event
		switch {
		case e.nowHead < len(e.nowQ) && (len(e.heap) == 0 || e.heap[0].at != e.now):
			ev = e.nowQ[e.nowHead]
			e.nowQ[e.nowHead] = event{}
			e.nowHead++
			if e.nowHead == len(e.nowQ) {
				e.nowQ = e.nowQ[:0]
				e.nowHead = 0
			}
		case len(e.heap) > 0:
			// Fire the advance hook before the pop, so the reported queue
			// depth covers every event of the new timestamp. The FIFO is
			// empty whenever the clock advances, so the heap holds them all.
			if at := e.heap[0].at; e.hook != nil && at != e.now {
				e.hook.OnAdvance(e.now, at, len(e.heap), e.Executed)
			}
			ev = e.pop()
		default:
			return e.now
		}
		e.now = ev.at
		e.Executed++
		if e.MaxEvents > 0 && e.Executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		ev.fn(ev.at)
	}
}
