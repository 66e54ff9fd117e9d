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
//
// Each software server is a node with no ST and no L1, so node.process
// charges it the handler instructions plus an uncached read-modify-write of
// the variable's own line. Lock messages reach it through the ordinary
// transport and run the master's own handlers; its grants leave through
// grantLock.

// fallbackNode returns the software server for addr.
func (c *Coordinator) fallbackNode(addr uint64) *node {
	if c.opt.Overflow == OverflowCentral {
		return c.fallbacks[0]
	}
	return c.fallbacks[c.m.HomeUnit(addr)]
}

// toFallback sends core's lock message for addr to the variable's software
// server, which runs the master's handler kind on it.
func (c *Coordinator) toFallback(t sim.Time, core int, addr uint64, done func(sim.Time), kind opKind) {
	o := c.op(kind)
	o.core, o.addr, o.flag, o.done = core, addr, false, done
	c.coreToNode(t, core, c.fallbackNode(addr), addr, o.fn)
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
