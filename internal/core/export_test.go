package core

// STEntriesLive returns the number of currently occupied ST entries across
// all SEs (zero once all variables are released).
func (c *Coordinator) STEntriesLive() int {
	n := 0
	for _, nd := range c.nodes {
		n += len(nd.st)
	}
	return n
}

// AbortsSent reports how many overflow abort broadcasts were issued.
func (c *Coordinator) AbortsSent() uint64 { return c.abortsSent }

// RMWValue returns the accumulated fetch-add value for addr.
func (c *Coordinator) RMWValue(addr uint64) uint64 {
	if ms, ok := c.vars[addr]; ok {
		return ms.rmwValue
	}
	return 0
}

// MasterTracks reports whether addr's master tracks the variable: with an
// ST entry or in the software fallback.
func (c *Coordinator) MasterTracks(addr uint64) bool {
	ms := c.vars[addr]
	return ms != nil && (ms.refHeld || ms.fallback)
}
