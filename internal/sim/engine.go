package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// The timing wheel's geometry. A slot spans 512 ps and the wheel 1024 slots,
// so the wheel holds every event less than 2^19 ps (524 ns) past the start of
// the slot being dispatched. On the perfbench grids 96–99% of schedules land
// that close and 5–13% at the current time; the rest wait in the overflow
// heap until the window reaches them.
const (
	slotShift  = 9
	wheelSlots = 1 << 10
	wheelMask  = wheelSlots - 1
)

// never is later than every event.
const never = Time(math.MaxInt64)

// event is one overflow-heap entry. The heap stores events by value — the
// ordering keys (at, seq) sit next to the callback, so heapify never chases a
// pointer and scheduling allocates nothing once the heap has grown.
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

// node is one wheel entry. Each slot's nodes form a list through next, a
// pool index. Index 0 is never used, so 0 means "no node". A node needs no
// seq: a slot's list is kept in (at, seq) order, and a new event has the
// largest seq so far, so it goes after every node of its slot with the same
// or an earlier at.
type node struct {
	at   Time
	fn   func(Time)
	next int32
}

// slot is one wheel slot: the first and last node of its list. tail is
// meaningless while head is 0.
type slot struct {
	head, tail int32
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs on the engine's goroutine.
//
// Events run in (at, seq) order. An event scheduled inside the window goes
// into a timing wheel (Varghese & Lauck), one further ahead into a binary
// heap; a heap event moves into the wheel when dispatch reaches its slot.
// The hot path is allocation-free in steady state: the wheel's nodes come
// from one reusable pool, and the heap stores events by value and reuses
// its capacity.
type Engine struct {
	now Time
	seq uint64

	// The wheel holds the events scheduled while their slot (at >>
	// slotShift) was in [cursor, cursor+wheelSlots), and the heap's events
	// of the cursor's slot. The cursor's slot is cur, and slot s is
	// slots[s&wheelMask] otherwise. Between dispatches the cursor is the
	// slot of now. slots is allocated by the first insert, keeping
	// NewEngine cheap.
	cursor uint64
	cur    slot
	slots  *[wheelSlots]slot
	occ    [wheelSlots / 64]uint64 // bit s&wheelMask set iff slot s is non-empty, cursor's excepted
	used   int                     // number of bits set in occ
	nodes  []node                  // node pool; nodes[0] is unused
	free   int32                   // head of the free-node list, 0 if none

	heap []event // (at, seq)-ordered binary heap of events past the wheel

	hook Hook // nil by default; see SetHook

	// Executed counts events run since construction; useful in tests, as a
	// runaway guard, and as the events/sec numerator of macro-benchmarks.
	// Callers only read it: the hook's pending count is derived from it.
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

// pending is the number of scheduled events not yet dispatched, for the
// hook: every Schedule takes a seq, every dispatch counts in Executed, and no
// event is ever dropped.
func (e *Engine) pending() uint64 { return e.seq - e.Executed }

// Schedule runs fn at time at; fn receives that timestamp. Scheduling in the
// past panics: the model has a causality bug that must not be masked.
//
// An event scheduled at the current time carries the largest seq so far, so
// it runs after every event already pending at this timestamp; when the
// current slot is empty, as after a handoff, it becomes that slot's only
// node directly. Any other event inside the wheel's window is linked into its
// slot, in O(1) unless the slot's last event is later; one past the window is
// pushed on the overflow heap.
func (e *Engine) Schedule(at Time, fn func(Time)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	// The cursor is the slot of now, so a same-time event bound for an
	// empty current slot needs no window test and no slot arithmetic.
	if n := e.free; at == e.now && e.cur.head == 0 && n != 0 {
		nd := &e.nodes[n]
		e.free = nd.next
		nd.at, nd.fn, nd.next = at, fn, 0
		e.cur.head, e.cur.tail = n, n
		return
	}
	if uint64(at)>>slotShift-e.cursor >= wheelSlots {
		e.push(event{at: at, seq: e.seq, fn: fn})
		return
	}
	e.insert(at, fn)
}

// insert links an event into its wheel slot, after every node there whose at
// is not later. The caller guarantees that the slot is inside the window and
// that the event runs after every node of its slot with the same at.
func (e *Engine) insert(at Time, fn func(Time)) {
	n := e.free
	if n == 0 {
		e.grow()
		n = e.free
	}
	nodes := e.nodes
	nd := &nodes[n]
	e.free = nd.next
	nd.at, nd.fn, nd.next = at, fn, 0
	sl := &e.cur
	if s := uint64(at) >> slotShift; s != e.cursor {
		i := s & wheelMask
		sl = &e.slots[i]
		if sl.head == 0 {
			e.occ[i/64] |= 1 << (i % 64)
			e.used++
		}
	}
	switch {
	case sl.head == 0:
		sl.head, sl.tail = n, n
	case nodes[sl.tail].at <= at:
		nodes[sl.tail].next = n
		sl.tail = n
	case at < nodes[sl.head].at:
		nd.next = sl.head
		sl.head = n
	default:
		// Walk from the head to the last node that is not later. The
		// tail, which is later, bounds the walk.
		p := sl.head
		for q := nodes[p].next; nodes[q].at <= at; q = nodes[q].next {
			p = q
		}
		nd.next = nodes[p].next
		nodes[p].next = n
	}
}

// grow doubles the node pool and threads the new nodes onto the free list.
// The first call also allocates the slot array.
func (e *Engine) grow() {
	if e.slots == nil {
		e.slots = new([wheelSlots]slot)
	}
	old := max(len(e.nodes), 1)
	size := max(2*old, 64)
	e.nodes = append(e.nodes, make([]node, size-len(e.nodes))...)
	for j := old; j < size-1; j++ {
		e.nodes[j].next = int32(j + 1)
	}
	e.nodes[size-1].next = e.free
	e.free = int32(old)
}

// push adds ev to the overflow heap by sifting the hole up from the tail to
// its place.
func (e *Engine) push(ev event) {
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

// pop removes and returns the overflow heap's minimum. The vacated tail entry
// is zeroed so its callback can be collected. The sift adds the borrow to the
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

// advance moves the cursor to the earliest slot that holds an event, in the
// wheel or in the overflow heap, and makes that slot the current one. It is
// called only when the cursor's slot is empty and some event is pending.
//
// Overflow events join the wheel only here, when their slot becomes the
// current one, so until then each lies in a later slot than the cursor, and
// Run looks at the cursor's slot alone. A heap event goes before every wheel
// event with the same at: it went to the heap while at was past the window,
// before the cursor came close enough for the wheel event to be scheduled,
// so it has the smaller seq.
func (e *Engine) advance() {
	c := uint64(never) >> slotShift
	if len(e.heap) > 0 {
		c = uint64(e.heap[0].at) >> slotShift
	}
	var wheel slot // the wheel's own events of slot c
	if e.used > 0 {
		if s := e.nextSlot(); s <= c {
			c = s
			i := s & wheelMask
			e.occ[i/64] &^= 1 << (i % 64)
			e.used--
			wheel, e.slots[i] = e.slots[i], slot{}
		}
	}
	e.cursor = c
	for len(e.heap) > 0 && uint64(e.heap[0].at)>>slotShift == c {
		ev := e.pop()
		e.insert(ev.at, ev.fn)
	}
	if e.cur.head == 0 {
		e.cur = wheel
		return
	}
	// Heap events came first; each wheel event goes after every one with
	// the same at.
	for n := wheel.head; n != 0; {
		nd := &e.nodes[n]
		at, fn, next := nd.at, nd.fn, nd.next
		nd.fn, nd.next, e.free = nil, e.free, n
		e.insert(at, fn)
		n = next
	}
}

// nextSlot returns the first non-empty slot after the cursor, reading the
// occupancy bitmap a word at a time. Some slot must be marked (used > 0).
func (e *Engine) nextSlot() uint64 {
	i := e.cursor & wheelMask
	w, b := i/64, i%64
	if m := e.occ[w] >> b; m != 0 {
		return e.cursor + uint64(bits.TrailingZeros64(m))
	}
	// start is the first slot of word w+1. The last word visited is w
	// again, whose low bits are the slots one lap ahead.
	start := e.cursor + 64 - b
	for k := uint64(1); ; k++ {
		if m := e.occ[(w+k)%uint64(len(e.occ))]; m != 0 {
			return start + 64*(k-1) + uint64(bits.TrailingZeros64(m))
		}
	}
}

// Run executes events in (at, seq) order until none is pending and returns
// the final simulation time. The advance hook fires before the dispatch that
// moves the clock, and its pending count covers the wheel and the overflow
// heap, so it includes every event of the new timestamp.
func (e *Engine) Run() Time {
	for {
		h := e.cur.head
		if h == 0 {
			if e.used == 0 && len(e.heap) == 0 {
				return e.now
			}
			e.advance()
			continue
		}
		nd := &e.nodes[h]
		at, fn := nd.at, nd.fn
		if e.hook != nil && at != e.now {
			e.hook.OnAdvance(e.now, at, int(e.pending()), e.Executed)
		}
		e.cur.head = nd.next
		nd.fn = nil
		nd.next = e.free
		e.free = h
		e.now = at
		e.Executed++
		if e.MaxEvents > 0 && e.Executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		fn(at)
	}
}
