// Package core implements SynCron, the paper's contribution: per-NDP-unit
// Synchronization Engines (SEs) with a Synchronization Table (ST) that
// directly buffers synchronization variables, a hierarchical message-passing
// protocol between local SEs and the Master SE of each variable, and a
// hardware-only overflow scheme that falls back to a syncronVar record in
// the Master SE's local memory (paper §3–§4).
//
// The same protocol machinery, parameterized by topology and node model,
// also realizes the paper's comparison points: the flat SynCron variant
// (§6.7.1) and — via internal/baselines — the Central and Hier
// message-passing schemes built from server NDP cores.
//
// Every request enters through Coordinator.Request, which maps each op to
// one call of route: to the variable's master under flat and central, to
// the core's local SE under hier. Every grant from a master to a single
// core leaves through grantCore, relayed by the core's local SE when the
// request came that way. Protocol steps are pooled continuations (callOp,
// see pool.go) dispatched by kind.
package core

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/sim"
)

// Topology selects how requests are routed between cores and coordination
// nodes.
type Topology int

const (
	// TopoHier is SynCron's hierarchical scheme: cores talk to the SE in
	// their own unit; SEs talk to the variable's Master SE.
	TopoHier Topology = iota
	// TopoFlat sends every core request directly to the variable's Master
	// node (the flat variant of §6.7.1).
	TopoFlat
	// TopoCentral sends every request to a single node in unit 0 (the
	// Central baseline, like Tesseract's barrier server).
	TopoCentral
)

// OverflowPolicy selects what happens when an ST fills up (§6.7.3).
type OverflowPolicy int

const (
	// OverflowIntegrated is SynCron's hardware-only scheme: the Master SE
	// services the variable via a syncronVar in its local memory.
	OverflowIntegrated OverflowPolicy = iota
	// OverflowCentral emulates MiSAR-style aborts to an alternative software
	// solution with one server core for the whole system
	// (SynCron_CentralOvrfl in Figure 23).
	OverflowCentral
	// OverflowDistrib is the alternative with one software server per NDP
	// unit (SynCron_DistribOvrfl in Figure 23).
	OverflowDistrib
)

// Software server costs: the server cores of the Central/Hier baselines and
// the overflow fallback servers.
const (
	// ServerHandlerInstrs is the software message-handler cost, in core
	// instructions.
	ServerHandlerInstrs = 60

	// ServerVarAccesses is how many loads/stores to the synchronization
	// variable's state a server performs per message (through its L1, if it
	// has one).
	ServerVarAccesses = 2
)

// indexingCounters is the overflow-tracking counter count of each SE
// (§4.2.3: indexed by the 8 LSBs of the line address).
const indexingCounters = 256

// Options configures a Coordinator.
type Options struct {
	Topology Topology

	// Nodes are SEs when true, server NDP cores when false.
	HardwareSE bool

	// STEntries is the Synchronization Table capacity per SE (default 64).
	// Ignored for server nodes, whose tables live in memory.
	STEntries int

	// Overflow selects the ST-overflow handling policy.
	Overflow OverflowPolicy

	// FairnessThreshold bounds consecutive local lock grants before the lock
	// is transferred to another waiting unit (§4.4.2). Zero disables it.
	FairnessThreshold int

	// SEServiceCycles is the SE occupancy per message in SE cycles; zero
	// means DefaultSEServiceCycles.
	SEServiceCycles int64
}

const (
	// DefaultSEServiceCycles is the paper's SE occupancy per message in SE
	// cycles: 12, the slowest opcode.
	DefaultSEServiceCycles = 12
	// AsyncIssueCycles is the core time a release-type op (req_async) takes
	// to issue; the core does not wait for its message.
	AsyncIssueCycles = 1
)

func (o Options) withDefaults() Options {
	if o.STEntries == 0 {
		o.STEntries = 64
	}
	if o.SEServiceCycles == 0 {
		o.SEServiceCycles = DefaultSEServiceCycles
	}
	return o
}

// NewSynCron returns the paper's SynCron backend: hierarchical SEs with
// 64-entry STs and integrated overflow.
func NewSynCron() *Coordinator { return NewCoordinator(Options{Topology: TopoHier, HardwareSE: true}) }

// NewSynCronFlat returns the flat SynCron variant of §6.7.1.
func NewSynCronFlat() *Coordinator {
	return NewCoordinator(Options{Topology: TopoFlat, HardwareSE: true})
}

// NewCoordinator builds a message-passing synchronization backend.
func NewCoordinator(o Options) *Coordinator {
	o = o.withDefaults()
	return &Coordinator{opt: o}
}

// pend is a core blocked in an acquire-type operation.
type pend struct {
	core int
	done func(sim.Time)
}

// Coordinator implements arch.Backend for all message-passing schemes.
type Coordinator struct {
	opt Options
	m   *arch.Machine

	nodes []*node // per unit (TopoHier/TopoFlat); single element for TopoCentral

	vars map[uint64]*masterState // global per-variable state, held at the master node

	totalReqs    uint64
	overflowReqs uint64

	// software fallback servers: one in unit 0 under OverflowCentral, one
	// per unit under OverflowDistrib, none otherwise (see fallback.go).
	fallbacks  []*node
	abortsSent uint64

	// continuation and state freelists (see pool.go).
	freeOps     *callOp
	freeMasters *masterState
	freeLocals  *localState
}

// Attach implements arch.Backend.
func (c *Coordinator) Attach(m *arch.Machine) {
	c.m = m
	c.vars = make(map[uint64]*masterState)
	n := m.Cfg.Units
	if c.opt.Topology == TopoCentral {
		n = 1
	}
	c.nodes = nil
	for i := 0; i < n; i++ {
		unit := i
		if c.opt.Topology == TopoCentral {
			unit = 0
		}
		c.nodes = append(c.nodes, newNode(c, unit))
	}
	c.fallbacks = nil
	switch c.opt.Overflow {
	case OverflowCentral:
		c.fallbacks = []*node{{c: c, unit: 0}}
	case OverflowDistrib:
		for u := 0; u < m.Cfg.Units; u++ {
			c.fallbacks = append(c.fallbacks, &node{c: c, unit: u})
		}
	}
	c.freeOps, c.freeMasters, c.freeLocals = nil, nil, nil
}

// masterNode returns the node coordinating variable addr globally.
func (c *Coordinator) masterNode(addr uint64) *node {
	if c.opt.Topology == TopoCentral {
		return c.nodes[0]
	}
	return c.nodes[c.m.HomeUnit(addr)]
}

// hierarchical reports whether local aggregation is active.
func (c *Coordinator) hierarchical() bool { return c.opt.Topology == TopoHier }

// Request implements arch.Backend. Release-type ops (req_async) commit once
// issued. An acquire of a lock whose variable is in the software fallback,
// and the release of a lock the fallback granted, go to the fallback server,
// which runs the master's own handler.
func (c *Coordinator) Request(t sim.Time, core int, req arch.SyncReq, done func(sim.Time)) {
	c.totalReqs++
	if c.overflowed(core, req.Addr) {
		c.overflowReqs++
	}
	if !req.Op.Blocking() {
		done(t + c.m.CoreClock.Cycles(AsyncIssueCycles))
		done = nil
	}
	switch req.Op {
	case arch.OpLockAcquire:
		if ms := c.vars[req.Addr]; ms != nil && ms.fallback {
			c.toFallback(t, core, req.Addr, done, opMasterCoreAcquire)
			return
		}
		c.route(t, core, req, done, opMasterCoreAcquire, opLockEnqueue)
	case arch.OpLockRelease:
		if ms := c.vars[req.Addr]; ms != nil && ms.fallbackHeld {
			c.toFallback(t, core, req.Addr, done, opMasterCoreRelease)
			return
		}
		c.route(t, core, req, done, opMasterCoreRelease, opLockReleaseAt)
	case arch.OpBarrierWithinUnit:
		c.route(t, core, req, done, opBarrierCoreArrive, opBarrierWithinLocal)
	case arch.OpBarrierAcrossUnits:
		c.route(t, core, req, done, opBarrierCoreArrive, opBarrierAcrossLocal)
	case arch.OpSemWait:
		c.route(t, core, req, done, opMasterSemWait, opForwardMaster)
	case arch.OpSemPost:
		c.route(t, core, req, done, opMasterSemPost, opForwardMaster)
	case arch.OpCondWait:
		c.route(t, core, req, done, opCondWaitFlat, opCondWaitLocal)
	case arch.OpCondSignal:
		c.route(t, core, req, done, opCondSignal, opForwardMaster)
	case arch.OpCondBroadcast:
		c.route(t, core, req, done, opCondBroadcast, opForwardMaster)
	case arch.OpFetchAdd:
		c.route(t, core, req, done, opFetchAddApply, opForwardMaster)
	default:
		panic(fmt.Sprintf("core: unknown sync op %v", req.Op))
	}
}

// overflowed reports whether a request for addr issued by core is serviced
// outside the STs: its variable is in the software fallback, or its first
// stop (the core's local SE under hier) or its master services addr via
// memory. It only reads state, so counting a request changes no timing.
func (c *Coordinator) overflowed(core int, addr uint64) bool {
	if ms := c.vars[addr]; ms != nil && ms.fallback {
		return true
	}
	return c.masterNode(addr).viaMemory(addr) ||
		c.hierarchical() && c.nodes[c.m.UnitOf(core)].viaMemory(addr)
}

// route sends a core's request to its first stop. Under flat or central it
// goes to the variable's master, which runs masterKind. Under hier it goes to
// the core's local SE, which runs localKind; localKind is opForwardMaster
// when the master does the work, and the SE then forwards it as masterKind.
func (c *Coordinator) route(t sim.Time, core int, req arch.SyncReq, done func(sim.Time), masterKind, localKind opKind) {
	var to *node
	o := c.op(masterKind)
	if c.hierarchical() {
		to = c.nodes[c.m.UnitOf(core)]
		o.kind, o.kind2, o.nd = localKind, masterKind, to
	} else {
		to = c.masterNode(req.Addr)
	}
	o.core, o.addr, o.info, o.flag, o.done = core, req.Addr, req.Info, false, done
	c.coreToNode(t, core, to, req.Addr, o.fn)
}

// ExtraCacheEnergyPJ implements arch.Backend.
func (c *Coordinator) ExtraCacheEnergyPJ() float64 {
	var pj float64
	for _, n := range c.nodes {
		if n.l1 != nil {
			pj += n.l1.EnergyPJ()
		}
	}
	return pj
}

// STOccupancy implements arch.BackendStats.
func (c *Coordinator) STOccupancy() (max, mean float64) {
	var sum float64
	cnt := 0
	for _, n := range c.nodes {
		if n.st == nil {
			continue
		}
		cap := float64(c.opt.STEntries)
		if f := n.occupancy.Max() / cap; f > max {
			max = f
		}
		sum += n.occupancy.Mean() / cap
		cnt++
	}
	if cnt > 0 {
		mean = sum / float64(cnt)
	}
	return max, mean
}

// OverflowedFraction implements arch.BackendStats.
func (c *Coordinator) OverflowedFraction() float64 {
	if c.totalReqs == 0 {
		return 0
	}
	return float64(c.overflowReqs) / float64(c.totalReqs)
}

// ---- message transport ----

// coreToNode delivers a request message from a core to a node and invokes
// then at the time the node finished processing it. viaMemory must reflect
// the node's servicing mode for addr at processing time; because the mode is
// determined when the message is handled, the node computes it itself.
func (c *Coordinator) coreToNode(t sim.Time, core int, n *node, addr uint64, then func(sim.Time)) {
	unit := c.m.UnitOf(core)
	arr := c.m.Net.Transfer(t, unit, n.unit, n.port(), arch.SyncReqBytes)
	o := c.op(opDeliver)
	o.nd, o.addr, o.done = n, addr, then
	c.m.Engine.Schedule(arr, o.fn)
}

// nodeToNode delivers a message between nodes. Same-node delivery costs
// nothing extra (the SE continues processing internally).
func (c *Coordinator) nodeToNode(t sim.Time, from, to *node, addr uint64, then func(sim.Time)) {
	if from == to {
		c.m.Engine.Schedule(t, then)
		return
	}
	arr := c.m.Net.Transfer(t, from.unit, to.unit, to.port(), arch.SyncReqBytes)
	o := c.op(opDeliver)
	o.nd, o.addr, o.done = to, addr, then
	c.m.Engine.Schedule(arr, o.fn)
}

// nodeToCore delivers a grant/notification from a node to a core; done gets
// the arrival time.
func (c *Coordinator) nodeToCore(t sim.Time, n *node, core int, done func(sim.Time)) {
	unit := c.m.UnitOf(core)
	arr := c.m.Net.Transfer(t, n.unit, unit, c.m.LocalOf(core), arch.SyncRespBytes)
	c.m.Engine.Schedule(arr, done)
}

// grantCore sends a grant from addr's master to a single core, relaying it
// through the core's local SE when the request came that way (an overflowed
// SE, or a hierarchical forwarder).
func (c *Coordinator) grantCore(t sim.Time, addr uint64, ref holderRef) {
	master := c.masterNode(addr)
	if ref.relay != nil && ref.relay != master {
		o := c.op(opRelayGrant)
		o.nd, o.core, o.done = ref.relay, ref.core, ref.done
		c.nodeToNode(t, master, ref.relay, addr, o.fn)
		return
	}
	c.nodeToCore(t, master, ref.core, ref.done)
}
