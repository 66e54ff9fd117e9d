// Package network models the NDP interconnect: a buffered crossbar inside
// each NDP unit (1-cycle arbiter, 1-cycle hops, per-destination-port FIFO
// queueing — a deterministic stand-in for the paper's M/D/1 queueing model)
// and narrow serial links between NDP units (12.8 GB/s per direction, 40 ns
// per cache line, 20-cycle fixed latency, per Table 5).
//
// How the units are wired is a Topology (topology.go): AllToAll reproduces
// the paper's full point-to-point interconnect, while Mesh2D, Ring, and Star
// open the sensitivity axis the paper varies. Transfer walks the route link
// by link; every link keeps its own serialization horizon and traffic
// counter, and messages forwarded through an intermediate unit also cross
// that unit's crossbar.
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

// Config holds the interconnect parameters.
type Config struct {
	CoreClock sim.Clock // clock used for cycle-denominated latencies

	// Intra-unit crossbar.
	HopCycles        int64 // per-hop latency
	Hops             int64 // hops for a core<->SE/memory traversal
	ArbiterCycles    int64 // arbitration
	FlitBytes        int   // crossbar port width per cycle
	IntraPJPerBitHop float64

	// Inter-unit serial links.
	LinkLatency     sim.Time // fixed transfer latency per cache line (default 40ns)
	LinkFixedCycles int64    // additional fixed cycles (default 20)
	LinkBytesPerSec int64    // per-direction bandwidth (default 12.8 GB/s)
	InterPJPerBit   float64
}

// DefaultConfig returns the Table-5 interconnect.
func DefaultConfig(coreClock sim.Clock) Config {
	return Config{
		CoreClock:        coreClock,
		HopCycles:        1,
		Hops:             2,
		ArbiterCycles:    1,
		FlitBytes:        16,
		IntraPJPerBitHop: 0.4,
		LinkLatency:      40 * sim.Nanosecond,
		LinkFixedCycles:  20,
		LinkBytesPerSec:  12_800_000_000,
		InterPJPerBit:    4.0,
	}
}

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
	cfg   Config
	topo  Topology
	units int
	nodes int // units plus topology switch nodes (Star hub)

	// Crossbar output-port occupancy, densely indexed [unit][portIndex];
	// portIndex remaps the sparse port-id space (cores >= 0, PortSE,
	// PortMemory, link egress ports) into a contiguous range — see portIndex.
	// Rows grow on demand as higher core ports appear.
	xbarBusy [][]sim.Time

	// linkBusy[src*nodes+dst] is the per-direction serialization horizon of
	// the (src, dst) link; linkBits is its lifetime traffic.
	linkBusy []sim.Time
	linkBits []uint64

	// routes caches topo.Route for every ordered unit pair (routes are
	// deterministic), keeping Transfer allocation-free on the hot path.
	routes [][]Link

	// tr, when non-nil, receives one WhatLinkXfer record per inter-unit link
	// traversal (the link's busy window plus the message size). Only the
	// cross-unit path emits; IntraDelay is deliberately untraced (its volume
	// would dominate the trace). linkNames interns the per-direction
	// "link.S-D" labels so the enabled hot path does not format strings.
	tr        trace.Tracer
	linkNames []string

	Stats Stats
}

// New builds the interconnect for the units of topo.
func New(cfg Config, topo Topology) *Network {
	units, nodes := topo.Units(), topo.Nodes()
	routes := make([][]Link, units*units)
	for src := 0; src < units; src++ {
		for dst := 0; dst < units; dst++ {
			if src != dst {
				routes[src*units+dst] = topo.Route(src, dst)
			}
		}
	}
	return &Network{
		cfg:      cfg,
		topo:     topo,
		units:    units,
		nodes:    nodes,
		xbarBusy: make([][]sim.Time, units),
		linkBusy: make([]sim.Time, nodes*nodes),
		linkBits: make([]uint64, nodes*nodes),
		routes:   routes,
	}
}

// NewAllToAll builds the default full point-to-point interconnect for n
// units — the pre-topology behavior, preserved bit for bit.
func NewAllToAll(cfg Config, n int) *Network {
	return New(cfg, MustBuild(KindAllToAll, n))
}

// Config returns the active configuration.
func (n *Network) Config() Config { return n.cfg }

// SetTracer installs tr (nil disables tracing) and pre-interns the per-link
// labels, so the traced path never formats strings per message.
func (n *Network) SetTracer(tr trace.Tracer) {
	n.tr = tr
	if tr != nil && n.linkNames == nil {
		n.linkNames = make([]string, n.nodes*n.nodes)
		for src := 0; src < n.nodes; src++ {
			for dst := 0; dst < n.nodes; dst++ {
				n.linkNames[src*n.nodes+dst] = fmt.Sprintf("link.%d-%d", src, dst)
			}
		}
	}
}

// Topology returns the interconnect topology.
func (n *Network) Topology() Topology { return n.topo }

// Units returns the number of NDP units connected.
func (n *Network) Units() int { return n.units }

// portIndex maps a sparse crossbar port id to a dense slice index:
// PortSE -> 0, PortMemory -> 1, link egress port towards node u -> 2+u,
// core c -> 2+nodes+c.
func (n *Network) portIndex(port int) int {
	switch {
	case port >= 0: // core
		return 2 + n.nodes + port
	case port >= PortMemory: // PortSE (-1) or PortMemory (-2)
		return -1 - port
	default: // link egress port, linkPort(u) = -100-u
		u := -100 - port
		if u < 0 || u >= n.nodes {
			panic(fmt.Sprintf("network: bad port id %d", port))
		}
		return 2 + u
	}
}

// busySlot returns a pointer to the occupancy horizon of (unit, port),
// growing the unit's dense row if this core port is the highest seen yet.
func (n *Network) busySlot(unit, port int) *sim.Time {
	idx := n.portIndex(port)
	row := n.xbarBusy[unit]
	if idx >= len(row) {
		grown := make([]sim.Time, idx+1)
		copy(grown, row)
		n.xbarBusy[unit] = grown
		row = grown
	}
	return &row[idx]
}

// IntraDelay computes the arrival time of a message of size bytes injected at
// time t inside unit, destined for local endpoint dstPort (an arbitrary id
// used for queueing separation: core index, -1 for SE, -2 for memory).
func (n *Network) IntraDelay(t sim.Time, unit, dstPort, bytes int) sim.Time {
	cfg := n.cfg
	flits := int64((bytes + cfg.FlitBytes - 1) / cfg.FlitBytes)
	if flits < 1 {
		flits = 1
	}
	ser := cfg.CoreClock.Cycles(flits)
	start := t
	slot := n.busySlot(unit, dstPort)
	if *slot > start {
		start = *slot
	}
	*slot = start + ser
	n.Stats.IntraBits.Add(uint64(bytes * 8))
	n.Stats.IntraMsgs.Inc()
	return start + ser + cfg.CoreClock.Cycles(cfg.ArbiterCycles+cfg.HopCycles*cfg.Hops)
}

// EnergyPJ returns total network energy. Inter-unit energy is per link
// traversed: InterBits already accumulates once per link on the route, so
// multi-hop topologies pay proportionally more without any constant here.
func (n *Network) EnergyPJ() float64 {
	intra := float64(n.Stats.IntraBits.Value()) * n.cfg.IntraPJPerBitHop * float64(n.cfg.Hops)
	inter := float64(n.Stats.InterBits.Value()) * n.cfg.InterPJPerBit
	return intra + inter
}

// linkSerialization is the time bytes occupy a serial link. It is computed
// in integer picoseconds (truncating, matching the historical float64 math
// on the default power-of-two-friendly bandwidth) so results are
// byte-identical across platforms and compilers.
func linkSerialization(bytes int, bytesPerSec int64) sim.Time {
	return sim.Time(int64(bytes) * int64(sim.Second) / bytesPerSec)
}

// linkDelay computes the arrival time at l.Dst of a message of size bytes
// entering link l at time t, and accounts the link's traffic.
func (n *Network) linkDelay(t sim.Time, l Link, bytes int) sim.Time {
	cfg := n.cfg
	ser := linkSerialization(bytes, cfg.LinkBytesPerSec)
	slot := &n.linkBusy[l.Src*n.nodes+l.Dst]
	start := t
	if *slot > start {
		start = *slot
	}
	*slot = start + ser
	n.linkBits[l.Src*n.nodes+l.Dst] += uint64(bytes * 8)
	n.Stats.InterBits.Add(uint64(bytes * 8))
	n.Stats.LinkHops.Inc()
	if n.tr != nil {
		// [start, start+ser) is the window the message occupies the link —
		// queueing behind the serialization horizon included — which is what
		// the LinkUtilizationSeries view integrates.
		n.tr.Emit(trace.Record{Start: start, End: start + ser,
			Where: n.linkNames[l.Src*n.nodes+l.Dst], What: trace.WhatLinkXfer,
			Value: float64(bytes), Unit: "bytes"})
	}
	return start + ser + cfg.LinkLatency + cfg.CoreClock.Cycles(cfg.LinkFixedCycles)
}

// InterDelay computes the arrival time at unit dst of a message of size bytes
// sent from unit src at time t over the direct (src, dst) link. src must
// differ from dst. Most callers want Transfer, which also routes and crosses
// the endpoint crossbars; InterDelay is the single-link building block.
func (n *Network) InterDelay(t sim.Time, src, dst, bytes int) sim.Time {
	if src == dst {
		panic(fmt.Sprintf("network: InterDelay within unit %d", src))
	}
	return n.linkDelay(t, Link{src, dst}, bytes)
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
	route := n.routes[srcUnit*n.units+dstUnit]
	n.Stats.InterMsgs.Inc()
	// source crossbar -> egress towards the first hop
	cur := n.IntraDelay(t, srcUnit, linkPort(route[0].Dst), bytes)
	for i, l := range route {
		if i > 0 && l.Src < n.units {
			// forwarded through an intermediate unit: cross its crossbar to
			// the egress port of the next link
			cur = n.IntraDelay(cur, l.Src, linkPort(l.Dst), bytes)
		}
		cur = n.linkDelay(cur, l, bytes)
	}
	// destination crossbar -> endpoint
	return n.IntraDelay(cur, dstUnit, dstPort, bytes)
}

// LinkLoad describes one directed link's lifetime traffic.
type LinkLoad struct {
	Link Link
	Bits uint64
}

// LinkLoads returns the traffic of every link that carried at least one bit,
// ordered by (Src, Dst).
func (n *Network) LinkLoads() []LinkLoad {
	var loads []LinkLoad
	for src := 0; src < n.nodes; src++ {
		for dst := 0; dst < n.nodes; dst++ {
			if bits := n.linkBits[src*n.nodes+dst]; bits > 0 {
				loads = append(loads, LinkLoad{Link{src, dst}, bits})
			}
		}
	}
	return loads
}

// linkPort is the crossbar port id for the egress link towards node u.
func linkPort(u int) int { return -100 - u }

// Well-known destination port ids inside a unit.
const (
	PortSE     = -1
	PortMemory = -2
)

// PortCore returns the crossbar port id of core c (unit-local index).
func PortCore(c int) int { return c }
