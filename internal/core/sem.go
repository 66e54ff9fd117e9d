package core

import "syncron/internal/sim"

// Semaphore protocol: the resource count lives in the master's ST entry
// (TableInfo: available #resources, Figure 7). In hierarchical mode local
// SEs relay sem_wait_local / sem_post_local as per-waiter global messages,
// and grants are delivered back through the waiter's local SE
// (sem_grant_global -> sem_grant_local).

// masterSemWait handles sem_wait at the master; initial is the semaphore's
// initial resource count, communicated on first touch (MessageInfo).
func (c *Coordinator) masterSemWait(t sim.Time, addr uint64, initial int, ref holderRef) {
	ms := c.master(addr)
	c.masterHold(t, ms)
	if !ms.semInit {
		ms.semInit = true
		ms.semCount = initial
	}
	if c.masterNode(addr).viaMemory(addr) {
		c.overflowReqs++
	}
	if ms.semCount > 0 {
		ms.semCount--
		c.grantCore(t, addr, ref)
		return
	}
	ms.semQ = append(ms.semQ, ref)
}

// masterSemPost handles sem_post at the master: grant the oldest waiter, or
// return the resource.
func (c *Coordinator) masterSemPost(t sim.Time, addr uint64) {
	ms := c.master(addr)
	c.masterHold(t, ms)
	ms.semInit = true
	if len(ms.semQ) > 0 {
		c.grantCore(t, addr, removeAt(&ms.semQ, 0))
		return
	}
	ms.semCount++
}
