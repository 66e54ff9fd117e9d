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
