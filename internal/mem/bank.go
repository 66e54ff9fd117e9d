// Bank/row-buffer DRAM timing model (Model == ModelBank): per-channel banks
// with open-row tracking, a bounded per-bank request queue, and a per-command
// energy split. It refines the flat model of dram.go without replacing it —
// both share the Memory type, the channel interleave, and the blocking
// completion-time Access contract, so the access path through arch is
// identical under either model.
//
// State machine per bank (see ARCHITECTURE.md "internal/mem — memory model"):
//
//	┌────────────┐  activate (tRCD)   ┌───────────────┐
//	│   closed   │ ─────────────────► │ open(row, …)  │◄─┐
//	└────────────┘                    └───────────────┘  │ column
//	      ▲     precharge (tRP,                │  └──────┘ (row hit)
//	      └──── + tWR if dirty) ◄──────────────┘ other row
//	                                              (row conflict)
//
// A row hit pays only the column latency; a closed-bank miss pays activate +
// column; a row conflict pays precharge + activate + column, plus the write
// recovery time when the open row was written since its activate.
package mem

import (
	"fmt"

	"syncron/internal/sim"
	"syncron/internal/trace"
)

// Model selects the DRAM timing model of a Memory.
type Model string

const (
	// ModelFlat is the first-order model of dram.go: every access pays a
	// fixed technology service latency on its interleaved channel. It is the
	// default and is pinned bit-exact by the repository goldens.
	ModelFlat Model = "flat"
	// ModelBank is the bank/row-buffer timing model of this file.
	ModelBank Model = "bank"
)

// Models returns every DRAM timing model in documentation order.
func Models() []Model { return []Model{ModelFlat, ModelBank} }

// rowNone marks a closed (precharged) bank.
const rowNone = -1

// BankTiming holds the bank/row-buffer parameters of one technology. The
// latency fields refine the flat Timing of the same technology: a closed-bank
// miss (activate + column) costs exactly the flat random-access latency, so
// the two models agree on the uncontended worst case and diverge only where
// row locality or bank conflicts exist.
type BankTiming struct {
	Banks      int    // banks per channel
	RowBytes   uint64 // row-buffer (DRAM page) size in bytes
	QueueDepth int    // bounded per-bank request queue (backpressure beyond it)

	ActivateLat  sim.Time // tRCD: activate (row open) to column command
	ColReadLat   sim.Time // CL: column read command to data
	ColWriteLat  sim.Time // CWL(+burst): column write command to completion
	PrechargeLat sim.Time // tRP: precharge (row close) to next activate
	WriteRecover sim.Time // tWR: last write to precharge of a dirty row

	// Per-command energy in picojoules. The split is anchored to the flat
	// model's per-access energy E = Line*8*EnergyPJPerBit: a clean row
	// conflict read (precharge + activate + column read) pays exactly E, a
	// row hit pays only the column share — so the bank model's energy is
	// bounded by the flat model's and rewards row locality.
	ActivatePJ, ReadPJ, WritePJ, PrechargePJ float64
}

// bankEnergySplit is the per-command share of the flat per-access energy.
const (
	activateShare  = 0.45
	columnShare    = 0.40 // read; writes pay the activate share (drivers + restore)
	writeShare     = 0.45
	prechargeShare = 0.15
)

// defaultBankQueueDepth bounds outstanding requests per bank; tests shrink it
// through NewBank to exercise backpressure cheaply.
const defaultBankQueueDepth = 8

// BankTimingFor returns the bank/row-buffer parameters for a technology,
// derived from the same Table-5 numbers as TimingFor:
//
//   - HBM: nRCDR = 7 ns is the activate latency; the remaining 7 ns of the
//     14 ns random read is the column access. tRP ≈ nRP ≈ 7 ns, tWR = 8 ns.
//     16 banks per channel, 1 KB row (HBM pages are small).
//   - HMC: nRCD = 17 ns activate, 8/10 ns column read/write (completing the
//     25/27 ns random access), tRP = nRAS - nRCD = 17 ns, tWR = 19 ns.
//     Vaults have few banks and closed-page-friendly 256 B rows.
//   - DDR4: nRCD = 16 ns activate, 14/16 ns column read/write, tRP ≈ 16 ns,
//     tWR = 18 ns. 16 banks (4 bank groups x 4) and the classic 8 KB row.
func BankTimingFor(t Tech) BankTiming {
	flat := TimingFor(t)
	e := float64(Line*8) * flat.EnergyPJPerBit
	bt := BankTiming{
		QueueDepth:  defaultBankQueueDepth,
		ActivatePJ:  activateShare * e,
		ReadPJ:      columnShare * e,
		WritePJ:     writeShare * e,
		PrechargePJ: prechargeShare * e,
	}
	switch t {
	case HBM:
		bt.Banks, bt.RowBytes = 16, 1024
		bt.ActivateLat = 7 * sim.Nanosecond
		bt.PrechargeLat = 7 * sim.Nanosecond
		bt.WriteRecover = 8 * sim.Nanosecond
	case HMC:
		bt.Banks, bt.RowBytes = 8, 256
		bt.ActivateLat = 17 * sim.Nanosecond
		bt.PrechargeLat = 17 * sim.Nanosecond
		bt.WriteRecover = 19 * sim.Nanosecond
	case DDR4:
		bt.Banks, bt.RowBytes = 16, 8192
		bt.ActivateLat = 16 * sim.Nanosecond
		bt.PrechargeLat = 16 * sim.Nanosecond
		bt.WriteRecover = 18 * sim.Nanosecond
	default:
		panic(fmt.Sprintf("mem: unknown tech %d", int(t)))
	}
	bt.ColReadLat = flat.ReadLatency - bt.ActivateLat
	bt.ColWriteLat = flat.WriteLatency - bt.ActivateLat
	return bt
}

// NewModel returns a memory stack running the given timing model: ModelFlat
// (or "") is New's flat model, ModelBank is NewBank with BankTimingFor's
// technology parameters. Unknown models panic — callers validate user input
// with ParseMemModel-style helpers before reaching this constructor.
func NewModel(eng *sim.Engine, unit int, timing Timing, model Model) *Memory {
	switch model {
	case "", ModelFlat:
		return New(eng, unit, timing)
	case ModelBank:
		return NewBank(eng, unit, timing, BankTimingFor(timing.Tech))
	default:
		panic(fmt.Sprintf("mem: unknown model %q", string(model)))
	}
}

// bankState is one bank's row-buffer state machine plus its bounded request
// queue.
type bankState struct {
	openRow int64      // open row index, or rowNone
	dirty   bool       // the open row was written since its activate
	readyAt sim.Time   // bank/command occupancy horizon
	ring    []sim.Time // completion times of the last QueueDepth requests
	pos     int        // next ring slot; ring[pos] is the oldest completion
}

// NewBank returns a memory stack using the bank/row-buffer model with
// explicit parameters (NewModel uses BankTimingFor's). The per-bank queue
// rings share one backing array, so construction does O(1) allocations and
// the access path does none.
func NewBank(eng *sim.Engine, unit int, timing Timing, bt BankTiming) *Memory {
	if bt.Banks <= 0 || bt.RowBytes < Line || bt.QueueDepth <= 0 {
		panic(fmt.Sprintf("mem: bad bank geometry: %d banks, %d B rows, queue %d",
			bt.Banks, bt.RowBytes, bt.QueueDepth))
	}
	m := New(eng, unit, timing)
	m.bank = &bt
	n := timing.Channels * bt.Banks
	m.banks = make([]bankState, n)
	rings := make([]sim.Time, n*bt.QueueDepth)
	for i := range m.banks {
		m.banks[i].openRow = rowNone
		m.banks[i].ring = rings[i*bt.QueueDepth : (i+1)*bt.QueueDepth : (i+1)*bt.QueueDepth]
	}
	return m
}

// mapAddr decomposes a line address for the bank model. The low line bits
// interleave channels exactly as the flat model (channelOf), then per-channel
// lines fill a row's columns before moving to the next bank, and banks before
// the next row — so sequential lines enjoy row locality while independent
// regions spread over banks.
func (m *Memory) mapAddr(addr uint64) (ch, bank int, row int64) {
	line := addr / Line
	nch := uint64(len(m.busyTill))
	ch = int(line % nch)
	pc := line / nch // per-channel line index
	lpr := m.bank.RowBytes / Line
	bank = int((pc / lpr) % uint64(m.bank.Banks))
	row = int64(pc / (lpr * uint64(m.bank.Banks)))
	return ch, bank, row
}

// bankAccess is Access under the bank model: FR-FCFS-ish in the sense that a
// request to the open row pays only the column access even when it queues
// behind the bank, while row misses pay the full activate (and precharge)
// penalty. Ordering stays first-come-first-served per bank — callers issue
// blocking accesses, so there is never a younger request to promote past an
// older one; what remains of FR-FCFS is its open-row-first cost model.
func (m *Memory) bankAccess(t sim.Time, addr uint64, write bool) sim.Time {
	bt := m.bank
	ch, bank, row := m.mapAddr(addr)
	bk := &m.banks[ch*bt.Banks+bank]

	// Bounded request queue: the bank accepts a new request only once the
	// request QueueDepth-ago has completed; until then the issuer stalls
	// (backpressure propagates through the blocking access path).
	start := t
	if admit := bk.ring[bk.pos]; admit > start {
		start = admit
		m.Stats.QueueStalls.Inc()
	}
	if bk.readyAt > start {
		start = bk.readyAt
	}

	col := bt.ColReadLat
	if write {
		col = bt.ColWriteLat
	}
	var lat sim.Time
	switch {
	case bk.openRow == row: // row hit: column access only
		lat = col
		m.Stats.RowHits.Inc()
	case bk.openRow == rowNone: // closed bank: activate + column
		lat = bt.ActivateLat + col
		m.Stats.RowMisses.Inc()
		m.Stats.Activates.Inc()
	default: // row conflict: (write recovery +) precharge + activate + column
		lat = bt.PrechargeLat + bt.ActivateLat + col
		if bk.dirty {
			lat += bt.WriteRecover
		}
		m.Stats.RowMisses.Inc()
		m.Stats.Activates.Inc()
		m.Stats.Precharges.Inc()
	}
	if bk.openRow != row {
		bk.dirty = false
	}
	bk.openRow = row
	if write {
		bk.dirty = true
		m.Stats.Writes.Inc()
	} else {
		m.Stats.Reads.Inc()
	}
	bankDone := start + lat
	bk.readyAt = bankDone

	// The 64B burst then serializes on the channel's shared data bus.
	busStart := bankDone
	if m.busyTill[ch] > busStart {
		busStart = m.busyTill[ch]
	}
	done := busStart + m.Timing.ChannelBusy
	m.busyTill[ch] = done

	bk.ring[bk.pos] = done
	bk.pos++
	if bk.pos == len(bk.ring) {
		bk.pos = 0
	}
	if m.tr != nil {
		m.tr.Emit(trace.Record{Start: start, End: done,
			Where: m.where, What: trace.WhatBankBusy,
			Value: float64(ch*bt.Banks + bank), Unit: "bank"})
	}
	return done
}

// EnergyPJ returns the stack's DRAM access energy in picojoules under its
// own model: the flat model prices every access at Line*8*EnergyPJPerBit;
// the bank model prices the commands actually issued, so row locality saves
// activate/precharge energy.
func (m *Memory) EnergyPJ() float64 {
	if m.bank == nil {
		return float64(m.Stats.Accesses()) * Line * 8 * m.Timing.EnergyPJPerBit
	}
	bt := m.bank
	return float64(m.Stats.Activates.Value())*bt.ActivatePJ +
		float64(m.Stats.Reads.Value())*bt.ReadPJ +
		float64(m.Stats.Writes.Value())*bt.WritePJ +
		float64(m.Stats.Precharges.Value())*bt.PrechargePJ
}

// SetTracer attaches the tracing layer to this stack, pre-interning its
// component label. Under the bank model each access emits its bank_busy
// record as it is modeled, and FlushTrace adds the run-total row counters;
// under the flat model the tracer is attached but produces nothing, keeping
// flat traces byte-identical with or without this call.
func (m *Memory) SetTracer(tr trace.Tracer) {
	m.tr = tr
	m.where = fmt.Sprintf("dram.u%d", m.Unit)
}

// FlushTrace emits the run-total row_hit/row_miss counters. Callers
// (arch.Machine.FlushTrace) invoke it after the engine drains.
func (m *Memory) FlushTrace() {
	if m.tr == nil || m.bank == nil {
		return
	}
	end := m.eng.Now()
	m.tr.Emit(trace.Record{Start: 0, End: end, Where: m.where,
		What: trace.WhatRowHit, Value: float64(m.Stats.RowHits.Value()), Unit: "accesses"})
	m.tr.Emit(trace.Record{Start: 0, End: end, Where: m.where,
		What: trace.WhatRowMiss, Value: float64(m.Stats.RowMisses.Value()), Unit: "accesses"})
}
