package core

import (
	"slices"

	"syncron/internal/sim"
)

// holderRef identifies who holds or waits for a lock at the master: either a
// whole local SE (node-level, aggregated) or a single core (flat/central
// topologies and ST-overflow redirects).
type holderRef struct {
	node  *node // non-nil for node-level references
	core  int
	done  func(sim.Time)
	relay *node // local SE that redirected this core's request, if any
}

// condWaiter is a core parked on a condition variable.
type condWaiter struct {
	core  int
	lock  uint64
	done  func(sim.Time)
	relay *node
}

// masterState is the global coordination state of one synchronization
// variable, held by its Master node. Semantic state always lives here (in
// the simulator's host memory); whether the hardware services it from the
// ST, from a syncronVar in DRAM, or from a software fallback determines
// latency, not correctness.
type masterState struct {
	addr uint64

	refHeld  bool // master node holds an ST entry for this variable
	fallback bool // MiSAR-style software fallback active (Figure 23)

	overflowSEs map[*node]bool // local SEs redirected into overflow mode

	// lock
	lockHeld bool
	queue    []holderRef

	// barrier
	barArrived int
	barNodes   []*node
	barCores   []holderRef

	// semaphore
	semInit  bool
	semCount int
	semQ     []holderRef

	// condition variable
	condQ []condWaiter

	// rmw extension
	rmwValue uint64

	next *masterState // freelist link (see pool.go)
}

func (ms *masterState) idle() bool {
	return !ms.lockHeld && len(ms.queue) == 0 &&
		ms.barArrived == 0 && len(ms.barCores) == 0 && len(ms.barNodes) == 0 &&
		len(ms.semQ) == 0 && len(ms.condQ) == 0
}

// localState is a local SE's per-variable coordination state (TopoHier).
type localState struct {
	addr uint64

	// lock
	waiters      []pend
	owning       bool // this SE currently holds the (global) lock
	holderActive bool // a local core is inside the critical section
	requested    bool // a global acquire has been sent to the master
	grants       int  // consecutive local grants (fairness, §4.4.2)

	// barriers
	barWaiters []pend

	next *localState // freelist link (see pool.go)
}

func (ls *localState) idle() bool {
	return len(ls.waiters) == 0 && !ls.owning && !ls.requested && len(ls.barWaiters) == 0
}

// master returns (creating if needed) the global state for addr. Freed
// states are recycled through a pool so steady-state episodes reuse their
// slices' and map's capacity instead of reallocating per episode.
func (c *Coordinator) master(addr uint64) *masterState {
	ms, ok := c.vars[addr]
	if !ok {
		if ms = c.freeMasters; ms != nil {
			c.freeMasters = ms.next
			ms.next = nil
			ms.addr = addr
		} else {
			ms = &masterState{addr: addr, overflowSEs: make(map[*node]bool)}
		}
		c.vars[addr] = ms
	}
	return ms
}

// masterHold ensures the master node tracks addr: in its ST if possible,
// otherwise via memory (integrated overflow) or by triggering the software
// fallback, per the configured policy.
func (c *Coordinator) masterHold(t sim.Time, ms *masterState) {
	if ms.refHeld || ms.fallback {
		return
	}
	n := c.masterNode(ms.addr)
	if n.acquireRef(t, ms.addr) {
		ms.refHeld = true
		return
	}
	switch c.opt.Overflow {
	case OverflowIntegrated:
		n.memEnter(ms.addr)
	default:
		c.enterFallback(t, ms)
	}
}

// masterFree releases the master-side tracking for addr once the variable is
// idle: the ST entry, or the memory-service mode (sending
// decrease_indexing_counter messages to overflowed SEs), or the fallback.
func (c *Coordinator) masterFree(t sim.Time, ms *masterState) {
	if !ms.idle() {
		return
	}
	n := c.masterNode(ms.addr)
	if ms.refHeld {
		n.releaseRef(t, ms.addr)
		ms.refHeld = false
	}
	if n.memVars != nil && n.memVars[ms.addr] {
		n.memExit(ms.addr)
	}
	for se := range ms.overflowSEs {
		// decrease_indexing_counter message to the overflowed SE.
		o := c.op(opMemExit)
		o.nd, o.addr = se, ms.addr
		c.nodeToNode(t, n, se, ms.addr, o.fn)
		delete(ms.overflowSEs, se)
	}
	if ms.fallback {
		c.exitFallback(t, ms)
	}
	delete(c.vars, ms.addr)
	// Recycle: idle() plus the resets above leave every semantic field at
	// its zero value except the sem/rmw scalars, which a fresh state would
	// also start from zero (they are discarded on free today too).
	ms.addr = 0
	ms.semInit = false
	ms.semCount = 0
	ms.rmwValue = 0
	ms.next = c.freeMasters
	c.freeMasters = ms
}

// localOf returns (creating if needed) node n's local state for addr,
// reserving an ST entry. ok is false when the SE has overflowed for addr and
// the request must be redirected to the master.
func (n *node) localOf(t sim.Time, addr uint64) (*localState, bool) {
	if ls, ok := n.locals[addr]; ok {
		return ls, true
	}
	if !n.acquireRef(t, addr) {
		return nil, false
	}
	c := n.c
	ls := c.freeLocals
	if ls == nil {
		ls = &localState{}
	} else {
		c.freeLocals = ls.next
		ls.next = nil
	}
	ls.addr = addr
	n.locals[addr] = ls
	return ls, true
}

// localDrop frees node n's local state for addr if it is idle.
func (n *node) localDrop(t sim.Time, addr uint64) {
	ls, ok := n.locals[addr]
	if !ok || !ls.idle() {
		return
	}
	delete(n.locals, addr)
	n.releaseRef(t, addr)
	// Recycle through the pool, keeping the waiter slices' capacity. idle()
	// guarantees both are empty; the scalar flags are reset explicitly.
	c := n.c
	*ls = localState{waiters: ls.waiters[:0], barWaiters: ls.barWaiters[:0], next: c.freeLocals}
	c.freeLocals = ls
}

// removeAt deletes and returns (*q)[i], shifting the tail down in place so
// the pooled state keeps its backing array's capacity across episodes; the
// vacated slot is zeroed to drop its references.
func removeAt[T any](q *[]T, i int) T {
	v := (*q)[i]
	*q = slices.Delete(*q, i, i+1)
	return v
}
