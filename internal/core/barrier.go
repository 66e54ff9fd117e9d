package core

import "syncron/internal/sim"

// Barrier protocol (§4.1): two flavors.
//
//   - barrier_wait_within_unit: all participants are in one NDP unit; the
//     local SE coordinates the barrier entirely locally.
//   - barrier_wait_across_units: participants span units. When every client
//     core of the system participates, SynCron uses the two-level scheme
//     (each SE collects its unit's arrivals, then sends one aggregated
//     barrier_wait_global; the master releases SEs with
//     barrier_depart_global). With a subset of cores, local SEs redirect all
//     messages to the master, which coordinates cores individually
//     (one-level communication, as the paper chooses for ISA simplicity).

// barrierWithinLocal runs the local-SE side of barrier_wait_within_unit
// after message processing at node local.
func (c *Coordinator) barrierWithinLocal(pt sim.Time, local *node, core int, addr uint64, n int, done func(sim.Time)) {
	ls, ok := local.localOf(pt, addr)
	if !ok {
		local.memEnter(addr)
		o := c.op(opBarrierCoreArrive)
		o.addr, o.info, o.core, o.done, o.nd = addr, uint64(n), core, done, local
		c.nodeToNode(pt, local, c.masterNode(addr), addr, o.fn)
		return
	}
	ls.barWaiters = append(ls.barWaiters, pend{core: core, done: done})
	if len(ls.barWaiters) >= n {
		c.barrierDepartLocal(pt, local, addr)
	}
}

// barrierAcrossLocal runs the local-SE side of barrier_wait_across_units
// with n participants after message processing at node local. The
// two-level scheme is active when every client core participates.
func (c *Coordinator) barrierAcrossLocal(pt sim.Time, local *node, core int, addr uint64, n int, done func(sim.Time)) {
	master := c.masterNode(addr)
	if n != c.m.NumCores() {
		// One-level: redirect to the master (costed as a relay hop).
		o := c.op(opBarrierCoreArrive)
		o.addr, o.info, o.core, o.done, o.nd = addr, uint64(n), core, done, local
		c.nodeToNode(pt, local, master, addr, o.fn)
		return
	}
	ls, ok := local.localOf(pt, addr)
	if !ok {
		local.memEnter(addr)
		o := c.op(opBarrierCoreArrive)
		o.addr, o.info, o.core, o.done, o.nd = addr, uint64(n), core, done, local
		c.nodeToNode(pt, local, master, addr, o.fn)
		return
	}
	ls.barWaiters = append(ls.barWaiters, pend{core: core, done: done})
	if len(ls.barWaiters) >= c.m.Cfg.CoresPerUnit {
		// Unit complete: one aggregated barrier_wait_global.
		o := c.op(opBarrierNodeArrive)
		o.addr, o.info, o.nd = addr, uint64(n), local
		c.nodeToNode(pt, local, master, addr, o.fn)
	}
}

// masterBarrierNodeArrive records an aggregated unit arrival.
func (c *Coordinator) masterBarrierNodeArrive(t sim.Time, addr uint64, n int, from *node) {
	ms := c.master(addr)
	c.masterHold(t, ms)
	if c.masterNode(addr).viaMemory(addr) {
		c.overflowReqs++
	}
	ms.barNodes = append(ms.barNodes, from)
	ms.barArrived += c.m.Cfg.CoresPerUnit
	c.masterBarrierMaybeDepart(t, ms, addr, n)
}

// masterBarrierCoreArrive records a single core arrival at the master.
func (c *Coordinator) masterBarrierCoreArrive(t sim.Time, addr uint64, n int, ref holderRef) {
	ms := c.master(addr)
	c.masterHold(t, ms)
	if ref.relay != nil {
		ms.overflowSEs[ref.relay] = true
		c.masterNode(addr).memEnter(addr)
	}
	if c.masterNode(addr).viaMemory(addr) {
		c.overflowReqs++
	}
	ms.barCores = append(ms.barCores, ref)
	ms.barArrived++
	c.masterBarrierMaybeDepart(t, ms, addr, n)
}

// masterBarrierMaybeDepart releases everyone once n arrivals are in.
func (c *Coordinator) masterBarrierMaybeDepart(t sim.Time, ms *masterState, addr uint64, n int) {
	if ms.barArrived < n {
		return
	}
	nodes := ms.barNodes
	cores := ms.barCores
	ms.barArrived = 0
	master := c.masterNode(addr)
	for _, nd := range nodes {
		// barrier_depart_global, then local departure grants.
		o := c.op(opBarrierDepartLocal)
		o.nd, o.addr = nd, addr
		c.nodeToNode(t, master, nd, addr, o.fn)
	}
	for _, ref := range cores {
		c.grantCore(t, addr, ref)
	}
	// Truncate in place (after the loops) so the pooled state keeps its
	// backing arrays; clear the holderRefs to drop their done references.
	clear(nodes)
	clear(cores)
	ms.barNodes = nodes[:0]
	ms.barCores = cores[:0]
	c.masterFree(t, ms)
}

// barrierDepartLocal runs at a local SE when barrier_depart_global arrives,
// or when its within-unit barrier completes: it grants all local barrier
// waiters and frees the local state.
func (c *Coordinator) barrierDepartLocal(lt sim.Time, nd *node, addr uint64) {
	ls := nd.locals[addr]
	if ls == nil {
		return
	}
	ws := ls.barWaiters
	for _, w := range ws {
		c.nodeToCore(lt, nd, w.core, w.done)
	}
	clear(ws)
	ls.barWaiters = ws[:0]
	nd.localDrop(lt, addr)
}
