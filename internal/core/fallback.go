package core

import (
	"syncron/internal/arch"
	"syncron/internal/network"
	"syncron/internal/sim"
)

// MiSAR-style non-integrated overflow handling (§6.7.3, Figure 23): when an
// ST overflows, the SEs send abort messages to all participating cores,
// which then synchronize through an alternative software solution — a
// message handler on an NDP core that keeps the synchronization variable in
// main memory (uncacheable: NDP systems have no shared caches to fall back
// on). When the variable drains, the cores notify the SEs to switch back to
// hardware synchronization. SynCron_CentralOvrfl uses one software server
// for the whole system; SynCron_DistribOvrfl one per NDP unit.

// fallbackUnit returns the NDP unit running the software fallback for addr.
func (c *Coordinator) fallbackUnit(addr uint64) int {
	if c.opt.Overflow == OverflowCentral {
		return 0
	}
	return c.m.HomeUnit(addr)
}

// enterFallback aborts hardware synchronization for ms's variable.
func (c *Coordinator) enterFallback(t sim.Time, ms *masterState) {
	ms.fallback = true
	c.abortsSent++
	// Abort notification to every client core (traffic + latency cost).
	master := c.masterNode(ms.addr)
	for core := 0; core < c.m.NumCores(); core++ {
		c.m.Net.Transfer(t, master.unit, c.m.UnitOf(core), c.m.LocalOf(core), arch.SyncRespBytes)
	}
}

// exitFallback switches the variable back to hardware synchronization: the
// cores notify the SEs (one message per unit, modelled as traffic).
func (c *Coordinator) exitFallback(t sim.Time, ms *masterState) {
	ms.fallback = false
	master := c.masterNode(ms.addr)
	for u := 0; u < c.m.Cfg.Units; u++ {
		if u == master.unit {
			continue
		}
		c.m.Net.Transfer(t, u, master.unit, network.PortSE, arch.SyncReqBytes)
	}
}

// fallbackService runs the software handler for one message: handler
// instructions plus an uncacheable read-modify-write of the variable in
// main memory, serialized on the fallback server.
func (c *Coordinator) fallbackService(t sim.Time, addr uint64) sim.Time {
	unit := c.fallbackUnit(addr)
	start := t
	if c.fallbackBusy[unit] > start {
		start = c.fallbackBusy[unit]
	}
	end := start + c.m.CoreClock.Cycles(serverHandlerInstrs)
	end = c.m.AccessFrom(end, unit, network.PortSE, nil, addr, false)
	end = c.m.AccessFrom(end, unit, network.PortSE, nil, addr, true)
	c.fallbackBusy[unit] = end
	return end
}

// fallbackLockAcquire services a lock acquire through the software fallback.
func (c *Coordinator) fallbackLockAcquire(t sim.Time, core int, addr uint64, done func(sim.Time)) {
	c.overflowReqs++
	unit := c.fallbackUnit(addr)
	arr := c.m.Net.Transfer(t, c.m.UnitOf(core), unit, network.PortSE, arch.SyncReqBytes)
	c.m.Engine.Schedule(arr, func(arr sim.Time) {
		fin := c.fallbackService(arr, addr)
		c.m.Engine.Schedule(fin, func(fin sim.Time) {
			ms := c.master(addr)
			ref := holderRef{core: core, done: done}
			if !ms.lockHeld {
				ms.lockHeld = true
				c.fallbackGrant(fin, addr, ref)
				return
			}
			ms.queue = append(ms.queue, ref)
		})
	})
}

// fallbackLockRelease services a lock release through the software fallback.
func (c *Coordinator) fallbackLockRelease(t sim.Time, core int, addr uint64) {
	unit := c.fallbackUnit(addr)
	arr := c.m.Net.Transfer(t, c.m.UnitOf(core), unit, network.PortSE, arch.SyncReqBytes)
	c.m.Engine.Schedule(arr, func(arr sim.Time) {
		fin := c.fallbackService(arr, addr)
		c.m.Engine.Schedule(fin, func(fin sim.Time) {
			ms := c.master(addr)
			ms.lockHeld = false
			if len(ms.queue) == 0 {
				c.masterFree(fin, ms)
				return
			}
			ms.lockHeld = true
			c.fallbackGrant(fin, addr, removeAt(&ms.queue, 0))
		})
	})
}

// fallbackGrant delivers a software grant to a core.
func (c *Coordinator) fallbackGrant(t sim.Time, addr uint64, ref holderRef) {
	unit := c.fallbackUnit(addr)
	arr := c.m.Net.Transfer(t, unit, c.m.UnitOf(ref.core), c.m.LocalOf(ref.core), arch.SyncRespBytes)
	c.m.Engine.Schedule(arr, ref.done)
}

// AbortsSent reports how many overflow abort broadcasts were issued (tests).
func (c *Coordinator) AbortsSent() uint64 { return c.abortsSent }
