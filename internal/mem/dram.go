// Package mem models the per-NDP-unit DRAM: HBM, HMC, and DDR4 technology
// timings (Table 5 of the paper), channel/vault-level queueing, and access
// energy. The model is deliberately first-order — a memory access pays a
// fixed technology-dependent service latency on its (address-interleaved)
// channel, and channels serialize accesses — which captures the latency and
// bandwidth contrasts the paper's sensitivity studies rely on.
package mem

import (
	"fmt"

	"syncron/internal/sim"
	"syncron/internal/trace"
)

// Tech selects a memory technology model.
type Tech int

const (
	// HBM is the 2.5D NDP configuration (default in the paper).
	HBM Tech = iota
	// HMC is the 3D NDP configuration.
	HMC
	// DDR4 is the 2D NDP configuration.
	DDR4
)

func (t Tech) String() string {
	switch t {
	case HBM:
		return "HBM"
	case HMC:
		return "HMC"
	case DDR4:
		return "DDR4"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// Timing holds the technology parameters of one memory stack/DIMM.
type Timing struct {
	Tech           Tech
	Channels       int      // parallel channels (HBM) / vaults (HMC) / DIMM channels (DDR4)
	ReadLatency    sim.Time // activation + column read for a random access
	WriteLatency   sim.Time // activation + write recovery
	ChannelBusy    sim.Time // channel occupancy per 64B access (bandwidth model)
	EnergyPJPerBit float64  // access energy
}

// Line is the cache-line/access granularity in bytes.
const Line = 64

// TimingFor returns the Table-5-derived parameters for a technology.
//
// Derivation (per Table 5):
//   - HBM 1.0, 500 MHz, 8 channels: nRCDR/nRCDW/nRAS/nWR = 7/6/17/8 ns.
//     Random read ≈ nRCDR + column access ≈ 7+7 ns; write ≈ 6+8 ns.
//   - HMC 2.1, 1250 MHz, 32 vaults: nRCD/nRAS/nWR = 17/34/19 ns.
//   - DDR4 2400, 4 DIMMs: nRCD/nRAS/nWR = 16/39/18 ns. The paper attaches
//     4 DIMMs to the 2D NDP system, one per NDP unit, and this package
//     models memory per unit — so each unit sees exactly one DIMM on its own
//     dedicated channel, hence Channels = 1 here (the 4 DIMM channels of the
//     whole system are the 4 per-unit Memory instances, not 4 channels inside
//     one Memory). Random read ≈ nRCD + column access ≈ 16+14 ns; write ≈
//     16+16 ns including recovery.
//
// ChannelBusy approximates per-64B occupancy from peak per-channel bandwidth
// (HBM: 16 GB/s/ch → 4 ns; HMC vault: 10 GB/s → 6.4 ns; DDR4: 19.2 GB/s DIMM
// → 3.3 ns but a single channel serves the whole unit).
func TimingFor(t Tech) Timing {
	switch t {
	case HBM:
		return Timing{Tech: t, Channels: 8, ReadLatency: 14 * sim.Nanosecond,
			WriteLatency: 14 * sim.Nanosecond, ChannelBusy: 4 * sim.Nanosecond,
			EnergyPJPerBit: 7.0}
	case HMC:
		return Timing{Tech: t, Channels: 32, ReadLatency: 25 * sim.Nanosecond,
			WriteLatency: 27 * sim.Nanosecond, ChannelBusy: 7 * sim.Nanosecond,
			EnergyPJPerBit: 8.0}
	case DDR4:
		return Timing{Tech: t, Channels: 1, ReadLatency: 30 * sim.Nanosecond,
			WriteLatency: 32 * sim.Nanosecond, ChannelBusy: 4 * sim.Nanosecond,
			EnergyPJPerBit: 20.0}
	default:
		panic(fmt.Sprintf("mem: unknown tech %d", int(t)))
	}
}

// Stats aggregates memory activity for energy and data-movement reporting.
// The row/bank counters stay zero under the flat model.
type Stats struct {
	Reads  sim.Counter
	Writes sim.Counter

	RowHits     sim.Counter // bank model: accesses that hit the open row
	RowMisses   sim.Counter // bank model: closed-bank and row-conflict accesses
	Activates   sim.Counter // bank model: activate commands issued
	Precharges  sim.Counter // bank model: precharge commands issued
	QueueStalls sim.Counter // bank model: accesses delayed by a full bank queue
}

// Accesses returns the total access count.
func (s *Stats) Accesses() uint64 { return s.Reads.Value() + s.Writes.Value() }

// Memory models one NDP unit's DRAM stack. With New it runs the flat model
// above; with NewBank (or NewModel with ModelBank) the bank/row-buffer model
// of bank.go refines the same channel interleave and blocking Access
// contract.
type Memory struct {
	Unit   int
	Timing Timing
	Stats  Stats

	eng      *sim.Engine
	busyTill []sim.Time // per-channel

	// Bank model state (nil / unused under the flat model); see bank.go.
	bank  *BankTiming
	banks []bankState
	tr    trace.Tracer
	where string
}

// New returns a memory stack for the given unit.
func New(eng *sim.Engine, unit int, timing Timing) *Memory {
	return &Memory{
		Unit:     unit,
		Timing:   timing,
		eng:      eng,
		busyTill: make([]sim.Time, timing.Channels),
	}
}

// channelOf interleaves 64B lines across channels.
func (m *Memory) channelOf(addr uint64) int {
	return int((addr / Line) % uint64(len(m.busyTill)))
}

// Access issues a read or write of one line starting at time t and returns
// the completion time. Under the flat model channel contention is modelled
// as FIFO occupancy; under the bank model see bankAccess.
func (m *Memory) Access(t sim.Time, addr uint64, write bool) sim.Time {
	if m.bank != nil {
		return m.bankAccess(t, addr, write)
	}
	ch := m.channelOf(addr)
	start := t
	if m.busyTill[ch] > start {
		start = m.busyTill[ch]
	}
	m.busyTill[ch] = start + m.Timing.ChannelBusy
	lat := m.Timing.ReadLatency
	if write {
		lat = m.Timing.WriteLatency
		m.Stats.Writes.Inc()
	} else {
		m.Stats.Reads.Inc()
	}
	return start + lat
}

// Read issues a line read; see Access.
func (m *Memory) Read(t sim.Time, addr uint64) sim.Time { return m.Access(t, addr, false) }

// Write issues a line write; see Access.
func (m *Memory) Write(t sim.Time, addr uint64) sim.Time { return m.Access(t, addr, true) }
