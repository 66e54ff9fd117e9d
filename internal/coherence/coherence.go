// Package coherence models a directory-based MESI protocol layered over the
// NDP interconnect. The paper uses it for motivation only (§2.2): a
// coherence-based lock (mesi-lock) on the simulated NDP system (Figure 2)
// and TTAS / Hierarchical Ticket Lock throughput on a NUMA CPU (Table 1).
// NDP systems do not support hardware coherence; this package exists to
// reproduce why.
package coherence

import (
	"maps"
	"slices"

	"syncron/internal/arch"
	"syncron/internal/network"
	"syncron/internal/sim"
)

// lineState is the directory's view of one cache line.
type lineState struct {
	owner   int          // core with M/E copy, -1 if none
	sharers map[int]bool // cores with S copies
}

// Space is a coherent address space shared by the cores of a machine. It
// tracks which core caches which line and charges directory transactions,
// invalidations, and cache-to-cache transfers on the machine's network.
type Space struct {
	m     *arch.Machine
	lines map[uint64]*lineState

	// Stats.
	Invalidations sim.Counter
	Transfers     sim.Counter // cache-to-cache forwards
	DirMisses     sim.Counter // memory fetches
}

// NewSpace returns a coherent space over machine m.
func NewSpace(m *arch.Machine) *Space {
	return &Space{m: m, lines: make(map[uint64]*lineState)}
}

// AccessKind is the coherence request type.
type AccessKind int

// Coherence request kinds.
const (
	Load AccessKind = iota
	Store
	RMW // atomic read-modify-write (needs exclusive ownership)
)

func (s *Space) line(addr uint64) *lineState {
	l, ok := s.lines[addr/64]
	if !ok {
		l = &lineState{owner: -1, sharers: make(map[int]bool)}
		s.lines[addr/64] = l
	}
	return l
}

// Access performs a coherent access by core at time t and returns the
// completion time. Latency composition:
//   - hit in the right state: L1 hit latency;
//   - otherwise a directory transaction at the line's home unit, possibly
//     forwarding from the current owner and invalidating sharers.
func (s *Space) Access(t sim.Time, core int, addr uint64, kind AccessKind) sim.Time {
	m := s.m
	l := s.line(addr)
	hit := m.CoreClock.Cycles(4)
	exclusive := kind != Load

	// Hit check.
	if l.owner == core {
		return t + hit
	}
	if !exclusive && l.sharers[core] {
		return t + hit
	}

	// Directory transaction at the home unit.
	unit := m.UnitOf(core)
	port := network.PortCore(m.LocalOf(core))
	home := m.HomeUnit(addr)
	dirArr := m.Net.Transfer(t+hit, unit, home, network.PortMemory, arch.MemReqBytes)
	dataAt := dirArr + m.CoreClock.Cycles(6) // directory lookup

	if l.owner >= 0 && l.owner != core {
		// Forward from the owner's cache (cache-to-cache transfer), downgrading
		// or invalidating the owner.
		s.Transfers.Inc()
		oUnit := m.UnitOf(l.owner)
		fwd := m.Net.Transfer(dataAt, home, oUnit, network.PortCore(m.LocalOf(l.owner)), arch.MemReqBytes)
		fwd += m.CoreClock.Cycles(4) // owner L1 access
		dataAt = m.Net.Transfer(fwd, oUnit, home, network.PortMemory, arch.MemDataBytes)
		if exclusive {
			l.owner = -1
		} else {
			l.sharers[l.owner] = true
			l.owner = -1
		}
	} else if l.owner < 0 && len(l.sharers) == 0 {
		// Clean miss: fetch from memory.
		s.DirMisses.Inc()
		dataAt = m.Mems[home].Read(dataAt, addr)
	}

	if exclusive && len(l.sharers) > 0 {
		// Invalidate all sharers; completion waits for the slowest ack. The
		// invalidations go out in core order: they contend for links, so a
		// map-iteration order would make the run's timing vary.
		ackAt := dataAt
		for _, sh := range slices.Sorted(maps.Keys(l.sharers)) {
			if sh == core {
				continue
			}
			s.Invalidations.Inc()
			su := m.UnitOf(sh)
			inv := m.Net.Transfer(dataAt, home, su, network.PortCore(m.LocalOf(sh)), arch.MemReqBytes)
			ack := m.Net.Transfer(inv, su, home, network.PortMemory, arch.MemReqBytes)
			if ack > ackAt {
				ackAt = ack
			}
		}
		dataAt = ackAt
		l.sharers = map[int]bool{}
	}

	// Data back to the requester.
	done := m.Net.Transfer(dataAt, home, unit, port, arch.MemDataBytes)
	if exclusive {
		l.owner = core
	} else {
		l.sharers[core] = true
	}
	return done
}
