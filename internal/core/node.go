package core

import (
	"syncron/internal/cache"
	"syncron/internal/network"
	"syncron/internal/sim"
)

// node is one coordination point: a Synchronization Engine (hardware) or a
// server NDP core (software message handler), in one NDP unit. A software
// fallback server (fallback.go) is a server node with no L1.
type node struct {
	c    *Coordinator
	unit int

	// Not a sim.Resource: a hold ends after nested AccessFrom bookings, and starts at arrival.
	busyTill sim.Time

	// SE state (nil for server nodes): the Synchronization Table models
	// direct buffering; entries are refcounted because a node can hold both
	// the local-role and master-role state of the same variable in one entry
	// (§6.6: a single entry is reserved when the local SE is the Master SE).
	st        map[uint64]int
	counters  []int           // indexing counters (aliased by low address bits)
	memVars   map[uint64]bool // variables currently serviced via main memory
	occupancy sim.Gauge

	// Server state (nil for SEs and fallback servers): the software
	// handler's L1 through which it accesses variable state in memory.
	l1 *cache.Cache

	// local per-variable protocol state (used in TopoHier).
	locals map[uint64]*localState
}

func newNode(c *Coordinator, unit int) *node {
	n := &node{c: c, unit: unit, locals: make(map[uint64]*localState)}
	if c.opt.HardwareSE {
		n.st = make(map[uint64]int)
		n.counters = make([]int, indexingCounters)
		n.memVars = make(map[uint64]bool)
	} else {
		n.l1 = cache.New(cache.DefaultConfig())
	}
	return n
}

// port is the node's crossbar endpoint inside its unit.
func (n *node) port() int { return network.PortSE }

// counterIndex hashes a variable address onto an indexing counter (8 LSBs of
// the line address, as in §4.2.3).
func (n *node) counterIndex(addr uint64) int {
	return int((addr / cache.LineSize) % indexingCounters)
}

// viaMemory reports whether the node must service addr through main memory
// (SE only): either the variable already overflowed, or it has no ST entry
// and cannot get one because the ST is full or an aliased indexing counter
// is non-zero (§4.2.3 aliasing note). The counters count memVars, so an SE
// with no variable via memory and a free entry answers without a lookup.
func (n *node) viaMemory(addr uint64) bool {
	if n.st == nil || len(n.memVars) == 0 && len(n.st) < n.c.opt.STEntries {
		return false
	}
	if n.memVars[addr] {
		return true
	}
	if _, ok := n.st[addr]; ok {
		return false
	}
	return len(n.st) >= n.c.opt.STEntries || n.counters[n.counterIndex(addr)] > 0
}

// acquireRef tries to reserve (or re-reference) the ST entry for addr. For
// server nodes it always succeeds. On failure the variable must be serviced
// via memory.
func (n *node) acquireRef(t sim.Time, addr uint64) bool {
	if n.st == nil {
		return true
	}
	if refs, ok := n.st[addr]; ok {
		n.st[addr] = refs + 1
		return true
	}
	if n.viaMemory(addr) {
		return false
	}
	n.st[addr] = 1
	n.occupancy.Set(t, float64(len(n.st)))
	return true
}

// releaseRef drops one reference to addr's ST entry, freeing it at zero.
func (n *node) releaseRef(t sim.Time, addr uint64) {
	if n.st == nil {
		return
	}
	refs, ok := n.st[addr]
	if !ok {
		return
	}
	if refs <= 1 {
		delete(n.st, addr)
		n.occupancy.Set(t, float64(len(n.st)))
	} else {
		n.st[addr] = refs - 1
	}
}

// memEnter marks addr as serviced via memory, bumping its indexing counter.
func (n *node) memEnter(addr uint64) {
	if n.st == nil || n.memVars[addr] {
		return
	}
	n.memVars[addr] = true
	n.counters[n.counterIndex(addr)]++
}

// memExit clears addr's memory-service mode (decrease_indexing_counter).
func (n *node) memExit(addr uint64) {
	if n.st == nil || !n.memVars[addr] {
		return
	}
	delete(n.memVars, addr)
	n.counters[n.counterIndex(addr)]--
}

// process models the node handling one message for addr arriving at arr and
// returns the time processing completes. The node is occupied for the whole
// duration (SEs buffer and serve messages in order; server cores are
// blocking in-order cores).
func (n *node) process(arr sim.Time, addr uint64) sim.Time {
	m := n.c.m
	start := arr
	if n.busyTill > start {
		start = n.busyTill
	}
	var end sim.Time
	if n.st != nil {
		// SE: fixed SPU service (paper: 12 SE cycles for the slowest
		// opcode); +2 SE cycles when the indexing counters are consulted,
		// plus a read-modify-write of the syncronVar in local memory when
		// the variable is serviced via memory and this SE is its master.
		end = start + m.SEClock.Cycles(n.c.opt.SEServiceCycles)
		if n.viaMemory(addr) {
			end += m.SEClock.Cycles(2)
			if n.c.masterNode(addr) == n {
				// Blocking read of the syncronVar, then a fire-and-forget
				// write-back of the updated record.
				varAddr := syncronVarAddr(addr)
				end = m.AccessFrom(end, n.unit, n.port(), nil, varAddr, false)
				m.AccessFrom(end, n.unit, n.port(), nil, varAddr, true)
			}
		}
	} else {
		// Server core: software handler instructions plus variable-state
		// accesses, through the server's own L1 (cacheable: the state is
		// private to the server) or, for a fallback server, uncached.
		end = start + m.CoreClock.Cycles(ServerHandlerInstrs)
		for i := 0; i < ServerVarAccesses; i++ {
			write := i == ServerVarAccesses-1
			end = m.AccessFrom(end, n.unit, n.port(), n.l1, n.varStateAddr(addr, i), write)
		}
	}
	n.busyTill = end
	return end
}

// syncronVarAddr maps a synchronization variable to its in-memory syncronVar
// record (allocated by the NDP driver in the variable's home unit; we reuse
// the variable's own line, which lives in the right unit by construction).
func syncronVarAddr(addr uint64) uint64 { return addr }

// varStateAddr is the line of a server's i-th access to addr's software
// state. A server with an L1 spreads it (variable word plus waiting-list
// record) over adjacent lines; a fallback server keeps the variable itself in
// main memory, so every access is to its own line.
func (n *node) varStateAddr(addr uint64, i int) uint64 {
	if n.l1 == nil {
		return addr
	}
	return addr + uint64(i)*cache.LineSize
}
