package core

import "syncron/internal/sim"

// Lock protocol (paper §3.2, Figure 4).
//
// Hierarchical mode: cores send local lock_acquire messages to their local
// SE, which records them in the ST entry's local waiting list and sends one
// aggregated global lock_acquire to the Master SE. The master grants the
// lock SE-to-SE; each SE then serves its local waiters in sequence and sends
// one aggregated global lock_release when no local requests remain.
//
// Flat/Central modes: every core request is a per-core message straight to
// the master node. ST-overflowed local SEs degenerate to the same per-core
// handling, relayed through the overflowed SE with overflow opcodes (§4.3.2).

// lockEnqueueAt runs the local-SE side of an acquire after message
// processing at node local (also used by condition-variable wakeups).
func (c *Coordinator) lockEnqueueAt(pt sim.Time, local *node, core int, addr uint64, done func(sim.Time)) {
	master := c.masterNode(addr)
	ls, ok := local.localOf(pt, addr)
	if !ok {
		// Local ST overflow: redirect to the master with overflow opcodes.
		local.memEnter(addr)
		o := c.op(opMasterCoreAcquire)
		o.core, o.addr, o.done, o.nd, o.flag = core, addr, done, local, true
		c.nodeToNode(pt, local, master, addr, o.fn)
		return
	}
	ls.waiters = append(ls.waiters, pend{core: core, done: done})
	switch {
	case ls.owning && !ls.holderActive:
		c.grantNextLocal(pt, local, ls)
	case !ls.owning && !ls.requested:
		ls.requested = true
		o := c.op(opMasterNodeAcquire)
		o.nd, o.addr = local, addr
		c.nodeToNode(pt, local, master, addr, o.fn)
	}
}

// grantNextLocal hands the lock to the next core in the SE's local waiting
// list (lock_grant_local).
func (c *Coordinator) grantNextLocal(t sim.Time, local *node, ls *localState) {
	w := removeAt(&ls.waiters, 0)
	ls.holderActive = true
	ls.grants++
	c.nodeToCore(t, local, w.core, w.done)
}

// lockReleaseAt runs the local-SE side of a release after message processing
// (also used when cond_wait releases the associated lock).
func (c *Coordinator) lockReleaseAt(pt sim.Time, local *node, addr uint64) {
	master := c.masterNode(addr)
	ls := local.locals[addr]
	if ls == nil || !ls.owning || !ls.holderActive {
		// The acquire was serviced via the master (overflow mode): redirect
		// the release there too.
		o := c.op(opMasterCoreRelease)
		o.addr = addr
		c.nodeToNode(pt, local, master, addr, o.fn)
		return
	}
	ls.holderActive = false
	transfer := c.opt.FairnessThreshold > 0 && ls.grants >= c.opt.FairnessThreshold
	if len(ls.waiters) > 0 && !transfer {
		c.grantNextLocal(pt, local, ls)
		return
	}
	// No more local requests (or fairness transfer): send one aggregated
	// global lock_release; re-queue this SE when it still has waiters.
	requeue := len(ls.waiters) > 0
	ls.owning = false
	ls.grants = 0
	if !requeue {
		ls.requested = false
		local.localDrop(pt, addr)
	}
	o := c.op(opMasterNodeRelease)
	o.nd, o.addr, o.flag = local, addr, requeue
	c.nodeToNode(pt, local, master, addr, o.fn)
}

// masterLockNodeAcquire handles a global lock_acquire from a local SE.
func (c *Coordinator) masterLockNodeAcquire(t sim.Time, from *node, addr uint64) {
	ms := c.master(addr)
	c.masterHold(t, ms)
	ref := holderRef{node: from}
	if !ms.lockHeld {
		c.grantLock(t, ms, ref)
		return
	}
	ms.queue = append(ms.queue, ref)
}

// masterLockCoreAcquire handles a per-core acquire at the master (flat,
// central, a condition-variable wakeup, or an overflow redirect by relay).
func (c *Coordinator) masterLockCoreAcquire(t sim.Time, core int, addr uint64, done func(sim.Time), relay *node, overflow bool) {
	ms := c.master(addr)
	c.masterHold(t, ms)
	if overflow {
		// §4.3.2: both the overflowed SE and the master service the variable
		// via memory and track it in their indexing counters.
		ms.overflowSEs[relay] = true
		c.masterNode(addr).memEnter(addr)
	}
	ref := holderRef{core: core, done: done, relay: relay}
	if !ms.lockHeld {
		c.grantLock(t, ms, ref)
		return
	}
	ms.queue = append(ms.queue, ref)
}

// masterLockNodeRelease handles an aggregated global lock_release from a
// local SE; requeue re-enqueues that SE at the tail (fairness transfer).
// Another waiter is granted first, so the master-local priority cannot hand
// the lock straight back to the SE that gave it up.
func (c *Coordinator) masterLockNodeRelease(t sim.Time, from *node, addr uint64, requeue bool) {
	ms := c.master(addr)
	ms.lockHeld = false
	if requeue && len(ms.queue) == 0 {
		ms.queue, requeue = append(ms.queue, holderRef{node: from}), false
	}
	c.masterLockGrantNext(t, ms, addr)
	if requeue {
		ms.queue = append(ms.queue, holderRef{node: from})
	}
}

// masterLockCoreRelease handles a per-core release at the master.
func (c *Coordinator) masterLockCoreRelease(t sim.Time, addr uint64) {
	ms := c.master(addr)
	ms.lockHeld = false
	c.masterLockGrantNext(t, ms, addr)
}

// masterLockGrantNext transfers the lock to the next waiting SE or core,
// preferring the master's own unit's SE (the paper's master-local priority),
// or frees the variable when nobody waits.
func (c *Coordinator) masterLockGrantNext(t sim.Time, ms *masterState, addr uint64) {
	if len(ms.queue) == 0 {
		c.masterFree(t, ms)
		return
	}
	idx := 0
	mn := c.masterNode(addr)
	for i, ref := range ms.queue {
		if ref.node == mn {
			idx = i
			break
		}
	}
	c.grantLock(t, ms, removeAt(&ms.queue, idx))
}

// grantLock hands the lock to ref: lock_grant_global to a whole local SE,
// which then serves its local waiting list, or a grant to a single core
// (through the software fallback when it is active).
func (c *Coordinator) grantLock(t sim.Time, ms *masterState, ref holderRef) {
	ms.lockHeld, ms.fallbackHeld = true, false
	switch {
	case ref.node != nil:
		o := c.op(opGrantNodeArrived)
		o.nd, o.addr = ref.node, ms.addr
		c.nodeToNode(t, c.masterNode(ms.addr), ref.node, ms.addr, o.fn)
	case ms.fallback:
		ms.fallbackHeld = true
		c.nodeToCore(t, c.fallbackNode(ms.addr), ref.core, ref.done)
	default:
		c.grantCore(t, ms.addr, ref)
	}
}

// grantLockNodeArrived runs at the local SE when lock_grant_global arrives.
func (c *Coordinator) grantLockNodeArrived(lt sim.Time, to *node, addr uint64) {
	ls := to.locals[addr]
	if ls == nil {
		// All local waiters vanished (can only happen via fairness requeue
		// races); bounce the lock back.
		o := c.op(opMasterNodeRelease)
		o.nd, o.addr, o.flag = to, addr, false
		c.nodeToNode(lt, to, c.masterNode(addr), addr, o.fn)
		return
	}
	ls.owning = true
	if len(ls.waiters) > 0 && !ls.holderActive {
		c.grantNextLocal(lt, to, ls)
	}
}
