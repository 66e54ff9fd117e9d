// Package network models the NDP interconnect: a buffered crossbar inside
// each NDP unit (1-cycle arbiter, 1-cycle hops, per-destination-port FIFO
// queueing — a deterministic stand-in for the paper's M/D/1 queueing model)
// and narrow serial links between NDP units (12.8 GB/s per direction, 40 ns
// per cache line, 20-cycle fixed latency, per Table 5).
//
// How the units are wired is a Topology (topology.go): AllToAll reproduces
// the paper's full point-to-point interconnect, while Mesh2D, Ring, and Star
// open the sensitivity axis the paper varies. Transfer walks the route link
// by link; every link is booked on its own, and messages forwarded through
// an intermediate unit also cross that unit's crossbar.
//
// The package also owns the traffic accounting used for Figures 14 and 15:
// bits moved inside NDP units vs across them, and the corresponding energy
// (0.4 pJ/bit/hop intra-unit; 4 pJ/bit per inter-unit link traversed, so
// multi-hop topologies pay energy per actual route length).
package network

import (
	"fmt"

	"syncron/internal/sim"
	"syncron/internal/trace"
)

// The Table-5 interconnect. Only the serial-link latency varies across the
// evaluation (Figures 16, 17 and 21), so it is the one parameter of New.
const (
	// Intra-unit crossbar.
	HopCycles        = 1   // per-hop latency, core cycles
	Hops             = 2   // hops for a core<->SE/memory traversal
	ArbiterCycles    = 1   // arbitration, core cycles
	IntraPJPerBitHop = 0.4 // crossbar energy per bit per hop

	// Inter-unit serial links.
	LinkFixedCycles = 20             // fixed cycles per transfer, on top of the link latency
	LinkBytesPerSec = 12_800_000_000 // per-direction bandwidth (12.8 GB/s)
	InterPJPerBit   = 4.0            // link energy per bit per link traversed

	// DefaultLinkLatency is Table 5's fixed transfer latency per cache line.
	DefaultLinkLatency = 40 * sim.Nanosecond

	// FlitBytes is the crossbar port width: a port passes one flit per
	// core cycle.
	FlitBytes = 16
)

// Stats aggregates network traffic for energy and data-movement reporting.
type Stats struct {
	IntraBits sim.Counter // bits moved inside NDP units (crossbar traversals)
	IntraMsgs sim.Counter // intra-unit crossbar messages
	InterBits sim.Counter // bits moved across inter-unit links (per link traversed)
	InterMsgs sim.Counter // cross-unit messages (once per transfer)
	LinkHops  sim.Counter // inter-unit link traversals (route length x messages)
}

// AvgRouteLinks reports the mean number of inter-unit links a cross-unit
// message traversed (exactly 1 on AllToAll; 0 when nothing crossed units).
func (s *Stats) AvgRouteLinks() float64 {
	if s.InterMsgs.Value() == 0 {
		return 0
	}
	return float64(s.LinkHops.Value()) / float64(s.InterMsgs.Value())
}

// Network models the whole system's interconnect: one crossbar per unit plus
// the serial links of the configured Topology.
type Network struct {
	clock sim.Clock // core clock, for cycle-denominated latencies

	// topo holds every unit pair's route (routes are deterministic), so
	// Transfer looks them up without allocating on the hot path.
	topo Topology

	// xbar[unit][portIndex(port)] books each crossbar output port. Port ids
	// form one contiguous range (link egress ports, PortMemory, PortSE,
	// cores), and each row has room for exactly the unit's ports, so a bad
	// port panics on its own row.
	xbar [][]sim.Resource

	// links[src*nodes+dst] books the (src, dst) link in that direction.
	links []sim.Resource

	// tr, when non-nil, receives one WhatLinkXfer record per inter-unit link
	// traversal (the link's busy window plus the message size). Only the
	// cross-unit path emits; IntraDelay is deliberately untraced (its volume
	// would dominate the trace). linkNames interns the per-direction
	// "link.S-D" labels so the enabled hot path does not format strings.
	tr        trace.Tracer
	linkNames []string

	// xbarFixed is the arbiter-plus-hops latency every crossbar traversal
	// adds, and linkFixed the link latency plus LinkFixedCycles every link
	// traversal adds; New computes both once.
	xbarFixed, linkFixed sim.Time

	Stats Stats
}

// New builds the interconnect for the units of topo, each with cores cores,
// clocked by clock, with linkLatency as the fixed per-message latency of
// every serial link. Every crossbar port and link is a sim.Resource.
func New(clock sim.Clock, linkLatency sim.Time, topo Topology, cores int) *Network {
	xbar := make([][]sim.Resource, topo.units)
	for u := range xbar {
		xbar[u] = make([]sim.Resource, 2+topo.nodes+cores)
	}
	return &Network{
		clock:     clock,
		topo:      topo,
		xbar:      xbar,
		links:     make([]sim.Resource, topo.nodes*topo.nodes),
		xbarFixed: clock.Cycles(ArbiterCycles + HopCycles*Hops),
		linkFixed: linkLatency + clock.Cycles(LinkFixedCycles),
	}
}

// SetTracer installs tr (nil disables tracing) and pre-interns the per-link
// labels, so the traced path never formats strings per message.
func (n *Network) SetTracer(tr trace.Tracer) {
	n.tr = tr
	if nodes := n.topo.nodes; tr != nil && n.linkNames == nil {
		n.linkNames = make([]string, nodes*nodes)
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				n.linkNames[src*nodes+dst] = fmt.Sprintf("link.%d-%d", src, dst)
			}
		}
	}
}

// portIndex maps a crossbar port id to its slot in a unit's xbar row: link
// egress towards node u -> nodes-1-u, PortMemory -> nodes, PortSE ->
// nodes+1, core c -> nodes+2+c.
func (n *Network) portIndex(port int) int { return port + 2 + n.topo.nodes }

// IntraDelay computes the arrival time of a message of size bytes injected at
// time t inside unit, destined for local crossbar port dstPort (PortCore,
// PortSE, PortMemory, or a link egress port), which it holds for the
// message's flits.
func (n *Network) IntraDelay(t sim.Time, unit, dstPort, bytes int) sim.Time {
	// The message holds the port one core cycle per flit, at least one.
	ser := n.clock.Cycles(max(1, int64((bytes+FlitBytes-1)/FlitBytes)))
	start := n.xbar[unit][n.portIndex(dstPort)].Book(t, ser)
	n.Stats.IntraBits.Add(uint64(bytes * 8))
	n.Stats.IntraMsgs.Inc()
	return start + ser + n.xbarFixed
}

// EnergyPJ returns total network energy. Inter-unit energy is per link
// traversed: InterBits already accumulates once per link on the route, so
// multi-hop topologies pay proportionally more without any constant here.
func (n *Network) EnergyPJ() float64 {
	intra := float64(n.Stats.IntraBits.Value()) * IntraPJPerBitHop * Hops
	inter := float64(n.Stats.InterBits.Value()) * InterPJPerBit
	return intra + inter
}

// linkSerialization is the time bytes occupy a serial link. It is computed
// in integer picoseconds (truncating, matching the historical float64 math)
// so results are byte-identical across platforms and compilers.
func linkSerialization(bytes int) sim.Time {
	return sim.Time(int64(bytes) * int64(sim.Second) / LinkBytesPerSec)
}

// linkDelay computes the arrival time at l.Dst of a message of size bytes
// entering link l at time t, and accounts the link's traffic.
func (n *Network) linkDelay(t sim.Time, l Link, bytes int) sim.Time {
	ser := linkSerialization(bytes)
	li := l.Src*n.topo.nodes + l.Dst
	start := n.links[li].Book(t, ser)
	n.Stats.InterBits.Add(uint64(bytes * 8))
	n.Stats.LinkHops.Inc()
	if n.tr != nil {
		// [start, start+ser) is the window the message occupies the link,
		// after any wait behind the link's earlier bookings, which is what
		// the LinkUtilizationSeries view integrates.
		n.tr.Emit(trace.Record{Start: start, End: start + ser,
			Where: n.linkNames[li], What: trace.WhatLinkXfer,
			Value: float64(bytes), Unit: "bytes"})
	}
	return start + ser + n.linkFixed
}

// Transfer computes the arrival time of a message from (srcUnit) to
// (dstUnit,dstPort): the source crossbar, every link on the topology's
// route (crossing the crossbar of each intermediate NDP unit; switch nodes
// like Star's hub contend only on their links), then the destination
// crossbar. This is the common path for all simulated messages.
func (n *Network) Transfer(t sim.Time, srcUnit, dstUnit, dstPort, bytes int) sim.Time {
	if srcUnit == dstUnit {
		return n.IntraDelay(t, srcUnit, dstPort, bytes)
	}
	route := n.topo.routes[srcUnit*n.topo.units+dstUnit]
	n.Stats.InterMsgs.Inc()
	// source crossbar -> egress towards the first hop
	cur := n.IntraDelay(t, srcUnit, linkPort(route[0].Dst), bytes)
	for i, l := range route {
		if i > 0 && l.Src < n.topo.units {
			// forwarded through an intermediate unit: cross its crossbar to
			// the egress port of the next link
			cur = n.IntraDelay(cur, l.Src, linkPort(l.Dst), bytes)
		}
		cur = n.linkDelay(cur, l, bytes)
	}
	// destination crossbar -> endpoint
	return n.IntraDelay(cur, dstUnit, dstPort, bytes)
}

// Well-known destination port ids inside a unit. With the cores (from 0)
// and the link egress ports (below PortMemory) they form one contiguous
// range per unit.
const (
	PortSE     = -1
	PortMemory = -2
)

// linkPort is the crossbar port id for the egress link towards node u.
func linkPort(u int) int { return PortMemory - 1 - u }

// PortCore returns the crossbar port id of core c (unit-local index).
func PortCore(c int) int { return c }
