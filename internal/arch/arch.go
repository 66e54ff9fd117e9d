// Package arch assembles the simulated NDP machine of Figure 1: several NDP
// units connected by serial links, each unit holding a memory stack and a
// compute die with in-order NDP cores and (depending on the synchronization
// scheme) a Synchronization Engine or a server core.
//
// The package owns the physical address map, data placement, the end-to-end
// memory access path (L1 -> crossbar -> link -> DRAM), and the aggregation
// of energy and data-movement statistics.
package arch

import (
	"fmt"

	"syncron/internal/cache"
	"syncron/internal/mem"
	"syncron/internal/network"
	"syncron/internal/sim"
	"syncron/internal/trace"
)

// Config describes a simulated NDP system.
type Config struct {
	Units        int // NDP units
	CoresPerUnit int // client NDP cores per unit (the paper uses 15 clients + 1 server/SE)

	Mem mem.Tech // memory technology (default HBM / 2.5D)

	// MemModel selects the DRAM timing model (default mem.ModelFlat; see
	// internal/mem). The flat model is pinned bit-exact by the goldens; the
	// bank model adds row-buffer and bank-level timing on the same channels.
	MemModel mem.Model

	// Topology selects how NDP units are wired (default full point-to-point,
	// network.KindAllToAll).
	Topology network.Kind

	// LinkLatency overrides the fixed inter-unit transfer latency per cache
	// line; zero keeps the Table-5 default of 40 ns.
	LinkLatency sim.Time

	// Seed for all deterministic randomness in the simulation.
	Seed uint64

	// Tracer, when non-nil, enables the time-resolved tracing layer: the
	// engine's dispatch hook, the network's per-link transfer records, the
	// memory's bank records and the program runner's synchronization spans
	// all feed it. Nil (the default) keeps every hook branch-predicted cold
	// and the hot path allocation-free.
	Tracer trace.Tracer
}

// Clock frequencies of Table 5. No configuration varies them.
const (
	CoreMHz = 2500 // NDP core clock
	SEMHz   = 1000 // Synchronization Engine clock
)

// withDefaults fills every zero field with the paper's evaluated
// configuration: 4 NDP units with 15 client cores each (HBM, the zero Mem).
func (c Config) withDefaults() Config {
	if c.Units == 0 {
		c.Units = 4
	}
	if c.CoresPerUnit == 0 {
		c.CoresPerUnit = 15
	}
	if c.Topology == "" {
		c.Topology = network.KindAllToAll
	}
	if c.MemModel == "" {
		c.MemModel = mem.ModelFlat
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = network.DefaultLinkLatency
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Address map: bits 40+ select the owning NDP unit; bit 39 marks shared
// read-write (uncacheable) allocations.
const (
	unitShift      = 40
	uncacheableBit = uint64(1) << 39
)

// Machine is a fully constructed simulated NDP system.
type Machine struct {
	Cfg       Config
	Engine    *sim.Engine
	CoreClock sim.Clock
	SEClock   sim.Clock
	Net       *network.Network
	Mems      []*mem.Memory
	Caches    []*cache.Cache // one per client core, indexed by global core id
	RNG       *sim.RNG

	Backend Backend // synchronization mechanism under test

	// Tracer is the machine-wide trace sink (nil when tracing is disabled).
	// The program runner reads it at Run time to emit synchronization spans.
	Tracer trace.Tracer

	allocNext  []uint64          // per-unit bump pointer (cacheable arena)
	allocNextU []uint64          // per-unit bump pointer (uncacheable arena)
	engHook    *trace.EngineHook // engine dispatch adapter; nil when untraced
}

// NewMachine builds a machine from cfg. Attach a Backend before running
// programs that synchronize.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine()
	coreClk := sim.NewClock(CoreMHz)
	seClk := sim.NewClock(SEMHz)
	m := &Machine{
		Cfg:        cfg,
		Engine:     eng,
		CoreClock:  coreClk,
		SEClock:    seClk,
		Net:        network.New(coreClk, cfg.LinkLatency, network.MustBuild(cfg.Topology, cfg.Units), cfg.CoresPerUnit),
		RNG:        sim.NewRNG(cfg.Seed),
		allocNext:  make([]uint64, cfg.Units),
		allocNextU: make([]uint64, cfg.Units),
	}
	timing := mem.TimingFor(cfg.Mem)
	for u := 0; u < cfg.Units; u++ {
		m.Mems = append(m.Mems, mem.NewModel(eng, u, timing, cfg.MemModel))
		m.allocNext[u] = mem.Line // keep address 0 unused
		m.allocNextU[u] = mem.Line
	}
	for c := 0; c < cfg.Units*cfg.CoresPerUnit; c++ {
		m.Caches = append(m.Caches, cache.New(cache.DefaultConfig()))
	}
	if cfg.Tracer != nil {
		m.Tracer = cfg.Tracer
		m.engHook = trace.NewEngineHook(cfg.Tracer, 0)
		eng.SetHook(m.engHook)
		m.Net.SetTracer(cfg.Tracer)
		for _, mm := range m.Mems {
			mm.SetTracer(cfg.Tracer)
		}
	}
	return m
}

// FlushTrace finalizes the tracing layer after a run: it emits the engine
// hook's last partial bucket and the memory stacks' run-total row
// counters. A no-op when tracing is disabled; callers (syncron.System.Run)
// invoke it unconditionally once the engine drains.
func (m *Machine) FlushTrace() {
	if m.engHook != nil {
		m.engHook.Flush(m.Engine.Executed)
	}
	for _, mm := range m.Mems {
		mm.FlushTrace()
	}
}

// NumCores returns the total number of client cores.
func (m *Machine) NumCores() int { return m.Cfg.Units * m.Cfg.CoresPerUnit }

// UnitOf returns the NDP unit hosting global core id c.
func (m *Machine) UnitOf(c int) int { return c / m.Cfg.CoresPerUnit }

// LocalOf returns the unit-local index of global core id c.
func (m *Machine) LocalOf(c int) int { return c % m.Cfg.CoresPerUnit }

// HomeUnit returns the NDP unit owning address addr.
func (m *Machine) HomeUnit(addr uint64) int {
	u := int(addr >> unitShift)
	if u >= m.Cfg.Units {
		panic(fmt.Sprintf("arch: address %#x outside %d units", addr, m.Cfg.Units))
	}
	return u
}

// Cacheable reports whether addr belongs to a cacheable (thread-private or
// shared read-only) allocation.
func (m *Machine) Cacheable(addr uint64) bool { return addr&uncacheableBit == 0 }

// Alloc reserves size bytes of cacheable memory in the given unit, aligned
// to the line size, and returns the base address.
func (m *Machine) Alloc(unit int, size uint64) uint64 {
	return m.alloc(unit, size, false)
}

// AllocShared reserves size bytes of shared read-write (uncacheable) memory.
func (m *Machine) AllocShared(unit int, size uint64) uint64 {
	return m.alloc(unit, size, true)
}

func (m *Machine) alloc(unit int, size uint64, shared bool) uint64 {
	if unit < 0 || unit >= m.Cfg.Units {
		panic(fmt.Sprintf("arch: alloc in unit %d of %d", unit, m.Cfg.Units))
	}
	if size == 0 {
		size = 1
	}
	aligned := (size + mem.Line - 1) &^ uint64(mem.Line-1)
	next := &m.allocNext[unit]
	flag := uint64(0)
	if shared {
		next = &m.allocNextU[unit]
		flag = uncacheableBit
	}
	base := *next
	*next += aligned
	if *next >= uncacheableBit {
		panic("arch: unit arena exhausted")
	}
	return uint64(unit)<<unitShift | flag | base
}

// Message payload sizes, from Figure 6 plus framing assumptions for memory
// traffic (64-bit address header).
const (
	SyncReqBytes  = 18 // 140-bit synchronization request
	SyncRespBytes = 19 // 149-bit response
	MemReqBytes   = 16 // read request / write ack header
	MemDataBytes  = mem.Line + 8
)

// AccessFrom models a blocking memory access issued at time t by an agent in
// the given unit attached to crossbar port (use network.PortCore(i) for a
// core, network.PortSE for an SE). If l1 is non-nil and addr is cacheable the
// access goes through the cache; otherwise it bypasses straight to the home
// unit's DRAM. The returned time is when the data is back at the agent.
func (m *Machine) AccessFrom(t sim.Time, unit, port int, l1 *cache.Cache, addr uint64, write bool) sim.Time {
	home := m.HomeUnit(addr)
	if l1 != nil && m.Cacheable(addr) {
		res := l1.Access(addr, write)
		hitLat := m.CoreClock.Cycles(res.LatencyCycles)
		if res.Hit {
			return t + hitLat
		}
		if res.Writeback {
			// Fire-and-forget writeback: consumes bandwidth, not core time.
			vhome := m.HomeUnit(res.VictimAddr)
			wt := m.Net.Transfer(t, unit, vhome, network.PortMemory, MemDataBytes)
			m.Mems[vhome].Write(wt, res.VictimAddr)
		}
		reqArr := m.Net.Transfer(t+hitLat, unit, home, network.PortMemory, MemReqBytes)
		ready := m.Mems[home].Read(reqArr, addr)
		return m.Net.Transfer(ready, home, unit, port, MemDataBytes)
	}
	if l1 != nil {
		l1.Bypass()
	}
	reqBytes := MemReqBytes
	if write {
		reqBytes = MemDataBytes
	}
	reqArr := m.Net.Transfer(t, unit, home, network.PortMemory, reqBytes)
	ready := m.Mems[home].Access(reqArr, addr, write)
	respBytes := MemDataBytes
	if write {
		respBytes = MemReqBytes // ack
	}
	return m.Net.Transfer(ready, home, unit, port, respBytes)
}

// CoreAccess is AccessFrom for a client core (global id), using its L1.
func (m *Machine) CoreAccess(t sim.Time, core int, addr uint64, write bool) sim.Time {
	return m.AccessFrom(t, m.UnitOf(core), network.PortCore(m.LocalOf(core)), m.Caches[core], addr, write)
}

// Energy summarizes the machine's energy consumption in picojoules.
type Energy struct {
	CachePJ   float64
	NetworkPJ float64
	MemoryPJ  float64
}

// Total returns total energy in picojoules.
func (e Energy) Total() float64 { return e.CachePJ + e.NetworkPJ + e.MemoryPJ }

// EnergyBreakdown computes the current energy totals.
func (m *Machine) EnergyBreakdown() Energy {
	var e Energy
	for _, c := range m.Caches {
		e.CachePJ += c.EnergyPJ()
	}
	if m.Backend != nil {
		e.CachePJ += m.Backend.ExtraCacheEnergyPJ()
	}
	e.NetworkPJ = m.Net.EnergyPJ()
	for _, mm := range m.Mems {
		e.MemoryPJ += mm.EnergyPJ()
	}
	return e
}

// RowHitRate returns the machine-wide fraction of DRAM accesses that hit an
// open row. Always 0 under the flat memory model.
func (m *Machine) RowHitRate() float64 {
	var hits, misses uint64
	for _, mm := range m.Mems {
		hits += mm.Stats.RowHits.Value()
		misses += mm.Stats.RowMisses.Value()
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// DataMovement reports bytes moved inside and across NDP units.
func (m *Machine) DataMovement() (intraBytes, interBytes uint64) {
	return m.Net.Stats.IntraBits.Value() / 8, m.Net.Stats.InterBits.Value() / 8
}
