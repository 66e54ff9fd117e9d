package core

import "syncron/internal/sim"

// Condition-variable protocol: a cond_wait message carries the associated
// lock address (MessageInfo, Figure 5). The waiter's local SE first performs
// the lock-release semantics on the associated lock, then registers the
// waiter with the condition variable's master. A signal wakes the oldest
// waiter, which must re-acquire the lock before its cond_wait completes —
// the wakeup is therefore injected into the lock protocol at the waiter's
// local SE.

// condWaitAtMaster runs a flat/central cond_wait at the variable's master:
// release the lock at its own master, then park the waiter.
func (c *Coordinator) condWaitAtMaster(pt sim.Time, core int, addr, lock uint64, done func(sim.Time)) {
	m := c.masterNode(addr)
	rel := c.op(opMasterCoreRelease)
	rel.addr = lock
	c.nodeToNode(pt, m, c.masterNode(lock), lock, rel.fn)
	ms := c.master(addr)
	c.masterHold(pt, ms)
	ms.condQ = append(ms.condQ, condWaiter{core: core, lock: lock, done: done})
}

// condWaitAtLocal runs a hierarchical cond_wait at the waiter's local SE:
// the SE releases the associated lock on the waiter's behalf, then forwards
// the wait to the condition variable's master.
func (c *Coordinator) condWaitAtLocal(pt sim.Time, local *node, core int, addr, lock uint64, done func(sim.Time)) {
	c.lockReleaseAt(pt, local, lock)
	o := c.op(opCondWaitReg)
	o.core, o.addr, o.lock, o.done, o.nd = core, addr, lock, done, local
	c.nodeToNode(pt, local, c.masterNode(addr), addr, o.fn)
}

// condWaitRegister parks the waiter at the master.
func (c *Coordinator) condWaitRegister(mt sim.Time, core int, addr, lock uint64, done func(sim.Time), relay *node) {
	ms := c.master(addr)
	c.masterHold(mt, ms)
	if c.masterNode(addr).viaMemory(addr) {
		c.overflowReqs++
	}
	ms.condQ = append(ms.condQ, condWaiter{core: core, lock: lock, done: done, relay: relay})
}

// condSignalAtMaster wakes the oldest waiter at the master.
func (c *Coordinator) condSignalAtMaster(mt sim.Time, addr uint64) {
	ms := c.master(addr)
	if len(ms.condQ) > 0 {
		c.condWake(mt, addr, removeAt(&ms.condQ, 0))
	}
	c.masterFree(mt, ms)
}

// condBroadcastAtMaster wakes all waiters at the master.
func (c *Coordinator) condBroadcastAtMaster(mt sim.Time, addr uint64) {
	ms := c.master(addr)
	ws := ms.condQ
	for _, w := range ws {
		c.condWake(mt, addr, w)
	}
	clear(ws)
	ms.condQ = ws[:0]
	c.masterFree(mt, ms)
}

// condWake re-acquires the waiter's lock and completes its cond_wait when
// the lock is granted.
func (c *Coordinator) condWake(t sim.Time, addr uint64, w condWaiter) {
	master := c.masterNode(addr)
	if !c.hierarchical() {
		// cond_grant travels to the lock's master as a per-core acquire.
		o := c.op(opMasterCoreAcquire)
		o.core, o.addr, o.done = w.core, w.lock, w.done
		c.nodeToNode(t, master, c.masterNode(w.lock), w.lock, o.fn)
		return
	}
	relay := w.relay
	if relay == nil {
		relay = c.nodes[c.m.UnitOf(w.core)]
	}
	// cond_grant_global to the waiter's local SE, which enqueues the waiter
	// on the lock as a normal local acquire.
	o := c.op(opLockEnqueue)
	o.nd, o.core, o.addr, o.done = relay, w.core, w.lock, w.done
	c.nodeToNode(t, master, relay, w.lock, o.fn)
}
