package sim

import "fmt"

// Handle names one scheduled event. Handles are small values: copying them is
// free and the zero Handle refers to no event (Cancel on it is a no-op).
//
// A Handle stays valid until its event runs or is cancelled; after that the
// engine recycles the event's storage for future Schedule calls. Handles are
// generation-counted, so a stale Handle held across recycling can never alias
// the slot's new occupant: Cancel on it is a no-op.
type Handle struct {
	slot int32  // slot index + 1; 0 means "no event"
	gen  uint32 // slot generation at schedule time
}

// Valid reports whether h refers to an event (it says nothing about whether
// that event already ran; Cancel is always safe).
func (h Handle) Valid() bool { return h.slot != 0 }

// slot lifecycle states.
const (
	slotFree uint8 = iota // on the freelist
	slotHeap              // queued in the time-ordered heap
	slotNow               // queued in the same-timestamp FIFO
	slotDead              // cancelled; its queue entry is lazily removed
)

// eventSlot is the engine-owned storage for one scheduled event. Slots live
// in a single arena and are recycled through a freelist, so steady-state
// Schedule/run cycles perform no heap allocations.
type eventSlot struct {
	fn    func(Time)
	at    Time
	seq   uint64
	gen   uint32
	state uint8
}

// heapEntry is one priority-queue element. The queue stores these by value —
// the ordering keys (at, seq) are embedded, so heapify never chases a pointer
// into the slot arena.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// entryLess orders entries by (at, seq): timestamp first, schedule order
// within one timestamp.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs on the engine's goroutine.
//
// The hot path is allocation-free in steady state: event storage is recycled
// through a freelist, the priority queue stores index entries by value, and
// events scheduled at the current timestamp (the zero-delay handoff pattern
// of the program layer) bypass the heap through a FIFO fast path.
type Engine struct {
	now Time
	seq uint64

	heap    []heapEntry // time-ordered binary heap of future events
	nowQ    []int32     // FIFO of events scheduled at exactly e.now
	nowHead int         // first live index into nowQ

	slots []eventSlot // arena of event storage
	free  []int32     // recycled slot indices

	stopped bool
	dead    int // cancelled events still sitting in the heap

	hook     Hook // nil by default; see SetHook
	hookedAt Time // last timestamp OnAdvance fired for (dedup guard)

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

// alloc pops a recycled slot or grows the arena.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	e.slots = append(e.slots, eventSlot{})
	return int32(len(e.slots) - 1)
}

// freeSlot recycles slot i. Bumping the generation invalidates every
// outstanding Handle to the slot's previous occupant.
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.gen++
	s.state = slotFree
	e.free = append(e.free, i)
}

// Schedule runs fn at time at; fn receives that timestamp. Scheduling in the
// past panics: the model has a causality bug that must not be masked.
//
// Events scheduled at exactly the current time skip the priority queue: they
// are appended to a same-timestamp FIFO, which preserves the global (at, seq)
// order because every event already in the heap at this timestamp was
// scheduled earlier (smaller seq) and later heap arrivals are strictly in the
// future.
func (e *Engine) Schedule(at Time, fn func(Time)) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	i := e.alloc()
	s := &e.slots[i]
	s.fn = fn
	s.at = at
	s.seq = e.seq
	if at == e.now {
		s.state = slotNow
		e.nowQ = append(e.nowQ, i)
	} else {
		s.state = slotHeap
		e.heapPush(heapEntry{at: at, seq: e.seq, slot: i})
	}
	return Handle{slot: i + 1, gen: s.gen}
}

// After runs fn d after the current time.
func (e *Engine) After(d Time, fn func(Time)) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel marks the event named by h so it will not run. Cancelling the zero
// Handle, an already-run event, an already-cancelled event, or a stale Handle
// whose slot was recycled is a no-op (the generation check catches the last).
// When dead events pile up past half the heap, the heap is compacted in
// place, so heavy cancel/reschedule churn cannot grow it unboundedly.
func (e *Engine) Cancel(h Handle) {
	if h.slot <= 0 || int(h.slot) > len(e.slots) {
		return
	}
	i := h.slot - 1
	s := &e.slots[i]
	if s.gen != h.gen {
		return // stale handle: the slot was recycled since h was issued
	}
	switch s.state {
	case slotHeap:
		s.state = slotDead
		e.dead++
		if e.dead > len(e.heap)/2 && len(e.heap) >= minCompactLen {
			e.compact()
		}
	case slotNow:
		// Same-timestamp events drain within the current timestep; lazy
		// removal on pop is enough.
		s.state = slotDead
	}
}

// minCompactLen keeps compaction from thrashing on tiny queues.
const minCompactLen = 64

// compact removes dead events from the heap, recycles their slots, and
// restores the heap invariant. Event ordering is unaffected: live events keep
// their (at, seq) keys.
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, en := range e.heap {
		if e.slots[en.slot].state == slotDead {
			e.freeSlot(en.slot)
		} else {
			live = append(live, en)
		}
	}
	e.heap = live
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.dead = 0
}

// heapPush appends en and sifts it up.
func (e *Engine) heapPush(en heapEntry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// heapPop removes and returns the minimum entry.
func (e *Engine) heapPop() heapEntry {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

// siftDown restores the heap invariant below index i.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && entryLess(e.heap[r], e.heap[l]) {
			m = r
		}
		if !entryLess(e.heap[m], e.heap[i]) {
			return
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of scheduled (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.nowQ) - e.nowHead }

// Run executes events in timestamp order until the queue drains or Stop is
// called. It returns the final simulation time.
func (e *Engine) Run() Time {
	return e.dispatch(0, false)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.dispatch(deadline, true)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// dispatch is the single event loop behind Run and RunUntil, so engine
// invariants — deterministic (at, seq) ordering, the Executed count, and the
// MaxEvents runaway guard — hold for both. Each iteration pops
// the global minimum of the heap and the same-timestamp FIFO by (at, seq).
func (e *Engine) dispatch(deadline Time, bounded bool) Time {
	e.stopped = false
	for !e.stopped {
		useNow := e.nowHead < len(e.nowQ)
		if useNow && len(e.heap) > 0 {
			ns := &e.slots[e.nowQ[e.nowHead]]
			if entryLess(e.heap[0], heapEntry{at: ns.at, seq: ns.seq}) {
				useNow = false
			}
		}
		var slot int32
		var at Time
		switch {
		case useNow:
			slot = e.nowQ[e.nowHead]
			at = e.slots[slot].at
			if bounded && at > deadline {
				return e.now
			}
			if e.hook != nil && at != e.now {
				e.fireAdvance(at, e.Pending())
			}
			e.nowHead++
			if e.nowHead == len(e.nowQ) {
				e.nowQ = e.nowQ[:0]
				e.nowHead = 0
			}
		case len(e.heap) > 0:
			at = e.heap[0].at
			if bounded && at > deadline {
				return e.now
			}
			// Fire the advance hook before the pop, so the reported queue
			// depth covers every event of the new timestamp.
			if e.hook != nil && at != e.now {
				e.fireAdvance(at, e.Pending())
			}
			slot = e.heapPop().slot
		default:
			return e.now
		}
		s := &e.slots[slot]
		if s.state == slotDead {
			if !useNow {
				e.dead--
			}
			e.freeSlot(slot)
			continue
		}
		fn := s.fn
		// Recycle before running: a callback that immediately reschedules (the
		// common zero-delay handoff) reuses the slot it just vacated.
		e.freeSlot(slot)
		e.now = at
		e.Executed++
		if e.MaxEvents > 0 && e.Executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		fn(at)
	}
	return e.now
}
