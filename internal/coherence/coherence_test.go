package coherence

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/sim"
)

func newSpace() (*Space, *arch.Machine) {
	m := arch.NewMachine(arch.Config{Units: 2, CoresPerUnit: 2})
	return NewSpace(m), m
}

// SharersOf reports how many cores cache addr.
func (s *Space) SharersOf(addr uint64) int {
	l := s.line(addr)
	n := len(l.sharers)
	if l.owner >= 0 {
		n++
	}
	return n
}

func TestLoadThenHit(t *testing.T) {
	s, m := newSpace()
	a := m.Alloc(0, 64)
	first := s.Access(0, 0, a, Load)
	second := s.Access(first, 0, a, Load) - first
	if second != m.CoreClock.Cycles(4) {
		t.Fatalf("second load = %v, want L1 hit", second)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	s, m := newSpace()
	a := m.Alloc(0, 64)
	tt := s.Access(0, 0, a, Load)
	tt = s.Access(tt, 1, a, Load)
	tt = s.Access(tt, 2, a, Load)
	if s.SharersOf(a) != 3 {
		t.Fatalf("sharers = %d, want 3", s.SharersOf(a))
	}
	s.Access(tt, 3, a, Store)
	if s.SharersOf(a) != 1 {
		t.Fatalf("after store sharers = %d, want 1 (owner)", s.SharersOf(a))
	}
	if s.Invalidations.Value() != 3 {
		t.Fatalf("invalidations = %d, want 3", s.Invalidations.Value())
	}
}

func TestRMWPingPong(t *testing.T) {
	s, m := newSpace()
	a := m.Alloc(0, 64)
	// Alternating RMWs between two cores: every access after the first
	// causes a cache-to-cache transfer.
	tt := s.Access(0, 0, a, RMW)
	tt = s.Access(tt, 1, a, RMW)
	tt = s.Access(tt, 0, a, RMW)
	tt = s.Access(tt, 1, a, RMW)
	if s.Transfers.Value() != 3 {
		t.Fatalf("transfers = %d, want 3", s.Transfers.Value())
	}
	// Repeated RMW by the owner is a hit.
	end := s.Access(tt, 1, a, RMW) - tt
	if end != m.CoreClock.Cycles(4) {
		t.Fatalf("owner RMW = %v, want hit latency", end)
	}
}

func TestCrossUnitTransferSlower(t *testing.T) {
	s, m := newSpace()
	a := m.Alloc(0, 64)
	// Core 0 (unit 0) owns the line.
	tt := s.Access(0, 0, a, RMW)
	// Same-unit transfer (core 1 is also unit 0).
	sameStart := tt
	same := s.Access(sameStart, 1, a, RMW) - sameStart
	// Re-own by core 1, then cross-unit transfer to core 2 (unit 1).
	s2, m2 := newSpace()
	a2 := m2.Alloc(0, 64)
	tt2 := s2.Access(0, 0, a2, RMW)
	cross := s2.Access(tt2, 2, a2, RMW) - tt2
	if cross <= same {
		t.Fatalf("cross-unit coherence transfer (%v) not slower than intra (%v)", cross, same)
	}
}

func TestDirMissFetchesMemory(t *testing.T) {
	s, m := newSpace()
	a := m.Alloc(1, 64)
	s.Access(0, 0, a, Load)
	if s.DirMisses.Value() != 1 {
		t.Fatalf("dir misses = %d, want 1", s.DirMisses.Value())
	}
	if m.Mems[1].Stats.Reads.Value() != 1 {
		t.Fatal("memory fetch did not hit home unit DRAM")
	}
	var _ sim.Time
}
