// Package syncron is the public API of the SynCron reproduction: a
// simulator for Near-Data-Processing (NDP) systems with hardware-accelerated
// synchronization, reproducing Giannoula et al., "SynCron: Efficient
// Synchronization Support for Near-Data-Processing Architectures"
// (HPCA 2021).
//
// A System is a simulated NDP machine (several NDP units, each with simple
// in-order cores close to an HBM/HMC/DDR4 stack) plus a synchronization
// Scheme: SynCron's per-unit Synchronization Engines, the Central or Hier
// message-passing baselines, coherence-based locks, or an Ideal zero-cost
// scheme. Programs are ordinary Go functions written against a core Context
// that issues computation, memory accesses, and the paper's synchronization
// primitives (locks, within/across-unit barriers, semaphores, condition
// variables).
//
// Quickstart:
//
//	sys := syncron.New(syncron.Config{Scheme: syncron.SchemeSynCron})
//	lock := sys.AllocLocal(0, 64)
//	counter := 0
//	sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
//	    for i := 0; i < 100; i++ {
//	        ctx.Lock(lock)
//	        counter++
//	        ctx.Unlock(lock)
//	        ctx.Compute(200)
//	    }
//	})
//	report := sys.Run()
//	fmt.Println(report.Makespan, counter)
//
// Above single systems sit three batch layers:
//
//   - the workload registry (RegisterWorkload, WorkloadNames, LookupInfo)
//     names every benchmark of the paper's evaluation;
//   - the sweep engine (Sweep, SpecRunner, Execute) expands
//     (workload x scheme x config) grids and runs them on a worker pool
//     with deterministic per-run seeds;
//   - the analysis layer (SpeedupVsBaseline, Scalability, EnergyBreakdown,
//     TrafficBreakdown, STAblation, TopologySensitivity, Figures) turns
//     sweep results into the paper's evaluation views — speedup over a
//     baseline scheme with geomean aggregation per workload family, scaling
//     curves, energy and data-movement breakdowns, ST occupancy/overflow
//     ablations, interconnect-topology sensitivity (TopologySensitivity),
//     and DRAM-model sensitivity (MemSensitivity).
//
// The syncron-sim command exposes all three (run, sweep, figures, list);
// see ARCHITECTURE.md for how an operation flows through the simulator.
package syncron

import (
	"fmt"
	"slices"
	"strings"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/coherlock"
	"syncron/internal/core"
	"syncron/internal/mem"
	"syncron/internal/network"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// Scheme selects the synchronization mechanism.
type Scheme string

// Available synchronization schemes.
const (
	// SchemeSynCron is the paper's contribution: hierarchical hardware
	// Synchronization Engines with direct variable buffering and integrated
	// overflow handling.
	SchemeSynCron Scheme = "syncron"
	// SchemeSynCronFlat is SynCron without the hierarchical level (§6.7.1).
	SchemeSynCronFlat Scheme = "syncron-flat"
	// SchemeCentral uses one server NDP core for the whole system.
	SchemeCentral Scheme = "central"
	// SchemeHier uses one server NDP core per NDP unit.
	SchemeHier Scheme = "hier"
	// SchemeIdeal has zero synchronization overhead (upper bound).
	SchemeIdeal Scheme = "ideal"
	// SchemeMESILock spins on MESI-coherent test&set locks (motivational).
	SchemeMESILock Scheme = "mesi-lock"
	// SchemeTTAS spins with test-and-test&set locks (motivational).
	SchemeTTAS Scheme = "ttas"
	// SchemeHTL uses Hierarchical Ticket Locks (motivational).
	SchemeHTL Scheme = "htl"
)

// Schemes returns every available scheme in a stable, documentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeSynCron, SchemeSynCronFlat, SchemeCentral, SchemeHier,
		SchemeIdeal, SchemeMESILock, SchemeTTAS, SchemeHTL}
}

// ParseScheme resolves a scheme name, accepting the short alias "flat" for
// SchemeSynCronFlat.
func ParseScheme(name string) (Scheme, error) {
	s := Scheme(strings.ToLower(strings.TrimSpace(name)))
	if s == "flat" {
		return SchemeSynCronFlat, nil
	}
	for _, known := range Schemes() {
		if s == known {
			return s, nil
		}
	}
	return "", fmt.Errorf("syncron: unknown scheme %q", name)
}

// Topology selects how NDP units are wired (internal/network's topology
// kinds). The interconnect is a sensitivity axis of the paper: AllToAll is
// the evaluated full point-to-point system, the others trade links for
// contention and hop count.
type Topology = network.Kind

// Interconnect topologies.
const (
	// TopoAllToAll is one dedicated serial link per ordered unit pair — the
	// paper's Figure-1 interconnect and the default.
	TopoAllToAll = network.KindAllToAll
	// TopoMesh2D arranges units on the most-square exact 2D grid with
	// dimension-ordered routing.
	TopoMesh2D = network.KindMesh2D
	// TopoRing connects units in a bidirectional ring (shortest way around).
	TopoRing = network.KindRing
	// TopoStar routes every unit pair through one shared off-chip switch.
	TopoStar = network.KindStar
)

// Topologies returns every supported topology in documentation order.
func Topologies() []Topology { return network.Kinds() }

// ParseTopology resolves a topology name (alltoall, mesh, ring, star); the
// empty string means TopoAllToAll.
func ParseTopology(name string) (Topology, error) { return network.ParseKind(name) }

// MemoryTech selects the NDP memory technology (Table 5).
type MemoryTech = mem.Tech

// Memory technologies.
const (
	HBM  = mem.HBM  // 2.5D NDP (default)
	HMC  = mem.HMC  // 3D NDP
	DDR4 = mem.DDR4 // 2D NDP
)

// ParseMemory resolves a memory technology name (hbm, hmc, ddr4).
func ParseMemory(name string) (MemoryTech, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "hbm", "":
		return HBM, nil
	case "hmc":
		return HMC, nil
	case "ddr4":
		return DDR4, nil
	}
	return HBM, fmt.Errorf("syncron: unknown memory technology %q", name)
}

// MemModel selects the DRAM timing model (internal/mem's models). Like the
// topology, the memory model is a sensitivity axis: MemModelFlat is the
// golden-pinned first-order model, MemModelBank adds per-bank row-buffer
// timing, a bounded per-bank queue, and a per-command energy split.
type MemModel = mem.Model

// DRAM timing models.
const (
	// MemModelFlat charges every access a fixed technology latency on its
	// interleaved channel (the default).
	MemModelFlat = mem.ModelFlat
	// MemModelBank tracks open rows per bank: row hits pay only the column
	// access, misses pay precharge/activate penalties.
	MemModelBank = mem.ModelBank
)

// MemModels returns every DRAM timing model in documentation order.
func MemModels() []MemModel { return mem.Models() }

// ParseMemModel resolves a memory-model name (flat, bank); the empty string
// means MemModelFlat.
func ParseMemModel(name string) (MemModel, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "flat", "":
		return MemModelFlat, nil
	case "bank":
		return MemModelBank, nil
	}
	return MemModelFlat, fmt.Errorf("syncron: unknown memory model %q", name)
}

// OverflowPolicy selects what happens when a Synchronization Table fills up
// (§6.7.3).
type OverflowPolicy = core.OverflowPolicy

// Overflow policies.
const (
	// OverflowIntegrated is SynCron's hardware-only scheme (default).
	OverflowIntegrated = core.OverflowIntegrated
	// OverflowCentral aborts to one central software handler.
	OverflowCentral = core.OverflowCentral
	// OverflowDistrib aborts to one software handler per NDP unit.
	OverflowDistrib = core.OverflowDistrib
)

// Time is a simulated duration/timestamp in picoseconds.
type Time = sim.Time

// Common durations, re-exported for configuration.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Config describes the simulated NDP system.
type Config struct {
	// Scheme selects the synchronization mechanism (default SchemeSynCron).
	Scheme Scheme `json:"scheme"`
	// Units is the number of NDP units (default 4).
	Units int `json:"units,omitempty"`
	// CoresPerUnit is the number of client NDP cores per unit (default 15).
	CoresPerUnit int `json:"cores_per_unit,omitempty"`
	// Memory selects the memory technology (default HBM).
	Memory MemoryTech `json:"memory,omitempty"`
	// MemModel selects the DRAM timing model (default MemModelFlat).
	MemModel MemModel `json:"mem_model,omitempty"`
	// Topology selects the inter-unit interconnect (default TopoAllToAll).
	Topology Topology `json:"topology,omitempty"`
	// LinkLatency overrides the inter-unit transfer latency per cache line;
	// zero means the 40 ns default, so a zero-latency link cannot be
	// expressed.
	LinkLatency Time `json:"link_latency_ps,omitempty"`
	// STEntries overrides SynCron's Synchronization Table size (default 64).
	STEntries int `json:"st_entries,omitempty"`
	// Overflow selects the ST-overflow handling policy (SynCron schemes only).
	Overflow OverflowPolicy `json:"overflow,omitempty"`
	// FairnessThreshold enables the §4.4.2 lock-fairness extension.
	FairnessThreshold int `json:"fairness_threshold,omitempty"`
	// SEServiceCycles overrides the SE occupancy per message in SE cycles
	// (default 12, the paper's §5 assumption; SynCron schemes only).
	SEServiceCycles int64 `json:"se_service_cycles,omitempty"`
	// Seed makes all simulated randomness reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Parallelism is ignored: every run uses the engine's one serial
	// dispatcher. It is excluded from JSON output and from SpecKey.
	//
	// Deprecated: the intra-run parallel dispatcher was removed; grids run
	// in parallel across runs (SpecRunner.Workers).
	Parallelism int `json:"-"`
	// Tracer receives time-resolved trace records from the run: engine queue
	// depth and dispatch rate, per-link transfer windows, and per-variable
	// lock/barrier/semaphore/condvar spans (see NewTraceCollector). Nil (the
	// default) disables tracing entirely — every hook point is branch-guarded,
	// so the disabled path costs zero allocations and is pinned by CI. The
	// tracer is an observation knob, not part of the experiment: it never
	// changes simulated results, and it is excluded from
	// JSON output and from SpecKey. Traced runs should bypass the result
	// cache — a cache hit skips the simulation, so the tracer would see
	// nothing.
	Tracer Tracer `json:"-"`
}

// ParallelismSerial was the Config.Parallelism value that forced the serial
// dispatcher, which is now the only one.
//
// Deprecated: Config.Parallelism is ignored.
const ParallelismSerial = -1

// Context is the interface a simulated core's program uses; see
// program.Ctx for the full method set (Compute, Read, Write, ReadSettled,
// ScanReads, Lock, Unlock, BarrierWithinUnit, BarrierAcrossUnits, SemWait,
// SemPost, CondWait, CondSignal, CondBroadcast, FetchAdd, Now, RunAhead).
type Context = program.Ctx

// Program is one simulated core's code.
type Program = program.Program

// System is a configured NDP machine ready to run programs.
type System struct {
	cfg Config
	m   *arch.Machine
	r   *program.Runner
}

// New builds a system from cfg; every zero field takes its documented
// default. A config that RunSpec.Validate rejects panics with the same
// message naming the field (Execute validates first and reports it as
// RunResult.Err).
func New(cfg Config) *System {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = SchemeSynCron
	}
	cfg.Topology, _ = ParseTopology(string(cfg.Topology)) // validated above
	cfg.MemModel, _ = ParseMemModel(string(cfg.MemModel))
	// NewMachine gives every zero field its default.
	m := arch.NewMachine(arch.Config{Units: cfg.Units, CoresPerUnit: cfg.CoresPerUnit,
		Mem: cfg.Memory, MemModel: cfg.MemModel, Topology: cfg.Topology,
		LinkLatency: cfg.LinkLatency, Seed: cfg.Seed, Tracer: cfg.Tracer})
	m.Backend = newBackend(cfg)
	// Record the machine-level defaults the run will actually use, so
	// Config() (and sweep results built from it) report resolved values.
	cfg.Units = m.Cfg.Units
	cfg.CoresPerUnit = m.Cfg.CoresPerUnit
	cfg.Seed = m.Cfg.Seed
	return &System{cfg: cfg, m: m, r: program.NewRunner(m)}
}

// Machine-size bounds, well above every evaluated point (the paper's 4 units
// of 15 cores, fig2a's 60 cores in one unit). Validate rejects a larger
// machine before anything is allocated for it.
const (
	// MaxUnits bounds Config.Units: network.New allocates a link slot per
	// ordered node pair and a route per ordered unit pair, Units² of each.
	MaxUnits = 64
	// MaxCoresPerUnit bounds Config.CoresPerUnit: every core gets its own
	// L1 and its own program coroutine.
	MaxCoresPerUnit = 64
)

// validate is the Config part of RunSpec.Validate, which New applies too.
// A zero machine parameter means "default"; a negative one has no meaning.
func (cfg Config) validate() error {
	_, topoErr := ParseTopology(string(cfg.Topology))
	_, modelErr := ParseMemModel(string(cfg.MemModel))
	switch {
	case cfg.Scheme != "" && !slices.Contains(Schemes(), cfg.Scheme):
		return fmt.Errorf("syncron: unknown scheme %q", cfg.Scheme)
	case topoErr != nil:
		return topoErr
	case modelErr != nil:
		return modelErr
	case cfg.Memory < HBM || cfg.Memory > DDR4:
		return fmt.Errorf("syncron: unknown memory technology %v", cfg.Memory)
	case cfg.Units < 0:
		return negative("Config.Units", cfg.Units)
	case cfg.CoresPerUnit < 0:
		return negative("Config.CoresPerUnit", cfg.CoresPerUnit)
	case cfg.LinkLatency < 0:
		return negative("Config.LinkLatency", cfg.LinkLatency)
	case cfg.STEntries < 0:
		return negative("Config.STEntries", cfg.STEntries)
	case cfg.FairnessThreshold < 0:
		return negative("Config.FairnessThreshold", cfg.FairnessThreshold)
	case cfg.SEServiceCycles < 0:
		return negative("Config.SEServiceCycles", cfg.SEServiceCycles)
	case cfg.Units > MaxUnits:
		return fmt.Errorf("syncron: Config.Units must be at most %d (got %d)", MaxUnits, cfg.Units)
	case cfg.CoresPerUnit > MaxCoresPerUnit:
		return fmt.Errorf("syncron: Config.CoresPerUnit must be at most %d (got %d)", MaxCoresPerUnit, cfg.CoresPerUnit)
	case cfg.Overflow < OverflowIntegrated || cfg.Overflow > OverflowDistrib:
		return fmt.Errorf("syncron: Config.Overflow must be an overflow policy (got %d)", cfg.Overflow)
	}
	return nil
}

// negative is the error for a field that must not be negative.
func negative(field string, v any) error {
	return fmt.Errorf("syncron: %s must not be negative (got %v)", field, v)
}

func newBackend(cfg Config) arch.Backend {
	switch cfg.Scheme {
	case SchemeSynCron:
		return core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true,
			STEntries: cfg.STEntries, Overflow: cfg.Overflow,
			FairnessThreshold: cfg.FairnessThreshold, SEServiceCycles: cfg.SEServiceCycles})
	case SchemeSynCronFlat:
		return core.NewCoordinator(core.Options{Topology: core.TopoFlat, HardwareSE: true,
			STEntries: cfg.STEntries, Overflow: cfg.Overflow,
			SEServiceCycles: cfg.SEServiceCycles})
	case SchemeCentral:
		return baselines.NewCentral()
	case SchemeHier:
		return baselines.NewHier()
	case SchemeIdeal:
		return baselines.NewIdeal()
	case SchemeMESILock:
		return coherlock.New(coherlock.MESILock)
	case SchemeTTAS:
		return coherlock.New(coherlock.TTAS)
	case SchemeHTL:
		return coherlock.New(coherlock.HTL)
	default:
		panic(fmt.Sprintf("syncron: unknown scheme %q", cfg.Scheme))
	}
}

// Config returns the configuration the system was built from, with Scheme,
// Units, CoresPerUnit, Topology, and Seed resolved to the values the run
// actually uses. Fields whose zero value means "scheme/component default" (STEntries,
// LinkLatency, SEServiceCycles) are reported as given.
func (s *System) Config() Config { return s.cfg }

// NumCores returns the number of client NDP cores.
func (s *System) NumCores() int { return s.m.NumCores() }

// UnitOf returns the NDP unit hosting core id.
func (s *System) UnitOf(core int) int { return s.m.UnitOf(core) }

// AllocLocal reserves cacheable memory (thread-private or shared read-only
// data, and synchronization variables) in the given NDP unit and returns its
// address. The unit determines the variable's Master SE.
func (s *System) AllocLocal(unit int, size uint64) uint64 { return s.m.Alloc(unit, size) }

// AllocShared reserves shared read-write memory in the given NDP unit; such
// data is uncacheable under the software-assisted coherence model.
func (s *System) AllocShared(unit int, size uint64) uint64 { return s.m.AllocShared(unit, size) }

// Spawn registers n copies of prog on consecutive free cores.
func (s *System) Spawn(n int, prog Program) {
	s.r.AddN(n, func(int) Program { return prog })
}

// SpawnEach registers programs produced by gen(i) on n consecutive cores.
func (s *System) SpawnEach(n int, gen func(i int) Program) { s.r.AddN(n, gen) }

// SpawnAt pins a program to a specific core.
func (s *System) SpawnAt(core int, prog Program) { s.r.AddAt(core, prog) }

// Report summarizes a finished run.
type Report struct {
	// Makespan is when the last core finished.
	Makespan Time
	// Scheme is the synchronization mechanism used.
	Scheme string
	// Energy breakdown in picojoules.
	CacheEnergyPJ, NetworkEnergyPJ, MemoryEnergyPJ float64
	// Data movement in bytes. BytesAcrossUnits counts every inter-unit link
	// traversed, so multi-hop topologies report more link traffic for the
	// same logical messages.
	BytesInsideUnits, BytesAcrossUnits uint64
	// AvgRouteLinks is the mean number of inter-unit links a cross-unit
	// message traversed (1 on the all-to-all topology, 0 if none crossed).
	AvgRouteLinks float64
	// RowHitRate is the fraction of DRAM accesses that hit an open row
	// buffer. Always 0 under the flat memory model (which has no row state).
	RowHitRate float64
	// SynCron-specific statistics (zero for other schemes).
	STOccupancyMax, STOccupancyMean, OverflowedFraction float64
	// Events is the number of discrete-event engine events executed by the
	// run — the simulator-throughput numerator of events/sec benchmarks
	// (perfbench).
	Events uint64
	// PerCore holds one entry per core that ran a program, in core order.
	PerCore []program.Stats
}

// TotalEnergyPJ returns the summed energy.
func (r Report) TotalEnergyPJ() float64 {
	return r.CacheEnergyPJ + r.NetworkEnergyPJ + r.MemoryEnergyPJ
}

// Run executes all registered programs to completion and reports.
func (s *System) Run() Report {
	makespan := s.r.Run()
	s.m.FlushTrace()
	e := s.m.EnergyBreakdown()
	rep := Report{
		Makespan:        makespan,
		Scheme:          s.m.Backend.Name(),
		CacheEnergyPJ:   e.CachePJ,
		NetworkEnergyPJ: e.NetworkPJ,
		MemoryEnergyPJ:  e.MemoryPJ,
		Events:          s.m.Engine.Executed,
		PerCore:         s.r.Stats(),
	}
	rep.BytesInsideUnits, rep.BytesAcrossUnits = s.m.DataMovement()
	rep.AvgRouteLinks = s.m.Net.Stats.AvgRouteLinks()
	rep.RowHitRate = s.m.RowHitRate()
	if bs, ok := s.m.Backend.(arch.BackendStats); ok {
		rep.STOccupancyMax, rep.STOccupancyMean = bs.STOccupancy()
		rep.OverflowedFraction = bs.OverflowedFraction()
	}
	return rep
}

// Machine exposes the underlying machine for advanced use (experiments,
// custom workloads in internal packages).
func (s *System) Machine() *arch.Machine { return s.m }
