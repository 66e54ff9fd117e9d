package core

import "syncron/internal/sim"

// fetchAddApply implements the §4.4.1 enhancement: a simple atomic
// read-modify-write executed inside the Master SE's lightweight ALU, which
// then sends the response to the requesting core. The paper leaves this to
// future work; it is routed like every other request so it can be
// exercised and benchmarked.
func (c *Coordinator) fetchAddApply(mt sim.Time, addr, delta uint64, ref holderRef) {
	ms := c.master(addr)
	c.masterHold(mt, ms)
	ms.rmwValue += delta
	c.grantCore(mt, addr, ref)
}
