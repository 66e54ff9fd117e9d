package arch

import (
	"testing"
	"testing/quick"

	"syncron/internal/mem"
	"syncron/internal/network"
)

func TestDefaults(t *testing.T) {
	m := NewMachine(Config{})
	if m.Cfg.Units != 4 || m.Cfg.CoresPerUnit != 15 {
		t.Fatalf("defaults: %d units x %d cores, want 4x15 (Table 5)", m.Cfg.Units, m.Cfg.CoresPerUnit)
	}
	if m.CoreClock.Period != 400 || m.SEClock.Period != 1000 {
		t.Fatalf("clocks: core %v, SE %v", m.CoreClock.Period, m.SEClock.Period)
	}
	if m.NumCores() != 60 {
		t.Fatalf("NumCores = %d", m.NumCores())
	}
}

func TestCoreToUnitMapping(t *testing.T) {
	m := NewMachine(Config{Units: 4, CoresPerUnit: 15})
	if m.UnitOf(0) != 0 || m.UnitOf(14) != 0 || m.UnitOf(15) != 1 || m.UnitOf(59) != 3 {
		t.Fatal("UnitOf mapping wrong")
	}
	if m.LocalOf(17) != 2 {
		t.Fatalf("LocalOf(17) = %d, want 2", m.LocalOf(17))
	}
}

func TestAllocHomeAndCacheability(t *testing.T) {
	m := NewMachine(Config{Units: 4})
	a := m.Alloc(2, 64)
	if m.HomeUnit(a) != 2 {
		t.Fatalf("home of %#x = %d, want 2", a, m.HomeUnit(a))
	}
	if !m.Cacheable(a) {
		t.Fatal("Alloc result should be cacheable")
	}
	s := m.AllocShared(3, 128)
	if m.HomeUnit(s) != 3 {
		t.Fatalf("home of shared %#x = %d, want 3", s, m.HomeUnit(s))
	}
	if m.Cacheable(s) {
		t.Fatal("AllocShared result must be uncacheable")
	}
}

// Property: allocations never overlap and always stay in their unit.
func TestAllocDisjointProperty(t *testing.T) {
	m := NewMachine(Config{Units: 4})
	type span struct{ lo, hi uint64 }
	var spans []span
	if err := quick.Check(func(unit uint8, sz uint16, shared bool) bool {
		u := int(unit) % 4
		size := uint64(sz)%4096 + 1
		var a uint64
		if shared {
			a = m.AllocShared(u, size)
		} else {
			a = m.Alloc(u, size)
		}
		if m.HomeUnit(a) != u || m.Cacheable(a) == shared {
			return false
		}
		lo, hi := a, a+size
		for _, s := range spans {
			if lo < s.hi && s.lo < hi {
				return false // overlap
			}
		}
		spans = append(spans, span{lo, hi})
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheableAccessHitsAfterMiss(t *testing.T) {
	m := NewMachine(Config{Units: 2, CoresPerUnit: 2})
	a := m.Alloc(0, 64)
	first := m.CoreAccess(0, 0, a, false)
	second := m.CoreAccess(first, 0, a, false) - first
	if second >= first {
		t.Fatalf("cached re-access (%v) not faster than miss (%v)", second, first)
	}
	if second != m.CoreClock.Cycles(4) {
		t.Fatalf("hit latency = %v, want 4 cycles", second)
	}
}

func TestUncacheableAlwaysMisses(t *testing.T) {
	m := NewMachine(Config{Units: 2, CoresPerUnit: 2})
	a := m.AllocShared(0, 64)
	first := m.CoreAccess(0, 0, a, false)
	second := m.CoreAccess(first, 0, a, false) - first
	if second < first/2 {
		t.Fatalf("uncacheable re-access suspiciously fast: %v vs %v", second, first)
	}
	if m.Caches[0].Stats.Bypasses.Value() != 2 {
		t.Fatalf("bypasses = %d, want 2", m.Caches[0].Stats.Bypasses.Value())
	}
}

func TestRemoteAccessSlowerThanLocal(t *testing.T) {
	m := NewMachine(Config{Units: 2, CoresPerUnit: 2})
	local := m.AllocShared(0, 64)
	remote := m.AllocShared(1, 64)
	tl := m.CoreAccess(0, 0, local, false) // core 0 is in unit 0
	m2 := NewMachine(Config{Units: 2, CoresPerUnit: 2})
	remote = m2.AllocShared(1, 64)
	tr := m2.CoreAccess(0, 0, remote, false)
	if tr <= tl {
		t.Fatalf("remote access (%v) not slower than local (%v)", tr, tl)
	}
	// The gap must be at least the 2x40ns link latency (request + response).
	if tr-tl < 80*1000 {
		t.Fatalf("remote-local gap %v < 80ns", tr-tl)
	}
}

func TestMemTechAffectsLatency(t *testing.T) {
	lat := map[mem.Tech]int64{}
	for _, tech := range []mem.Tech{mem.HBM, mem.HMC, mem.DDR4} {
		m := NewMachine(Config{Units: 1, CoresPerUnit: 1, Mem: tech})
		a := m.AllocShared(0, 64)
		lat[tech] = int64(m.CoreAccess(0, 0, a, false))
	}
	if !(lat[mem.HBM] < lat[mem.HMC] && lat[mem.HMC] < lat[mem.DDR4]) {
		t.Fatalf("memory latency ordering violated: %v", lat)
	}
}

func TestLinkLatencyOverride(t *testing.T) {
	slow := NewMachine(Config{Units: 2, CoresPerUnit: 1, LinkLatency: 500 * 1000})
	fast := NewMachine(Config{Units: 2, CoresPerUnit: 1})
	as := slow.AllocShared(1, 64)
	af := fast.AllocShared(1, 64)
	ts := slow.CoreAccess(0, 0, as, false)
	tf := fast.CoreAccess(0, 0, af, false)
	if ts <= tf {
		t.Fatalf("500ns link (%v) not slower than 40ns (%v)", ts, tf)
	}
}

func TestEnergyBreakdownAccumulates(t *testing.T) {
	m := NewMachine(Config{Units: 2, CoresPerUnit: 2})
	a := m.AllocShared(1, 64)
	m.CoreAccess(0, 0, a, true)
	e := m.EnergyBreakdown()
	if e.NetworkPJ <= 0 || e.MemoryPJ <= 0 {
		t.Fatalf("energy breakdown empty: %+v", e)
	}
	intra, inter := m.DataMovement()
	if intra == 0 || inter == 0 {
		t.Fatalf("data movement empty: %d/%d", intra, inter)
	}
	if e.Total() != e.CachePJ+e.NetworkPJ+e.MemoryPJ {
		t.Fatal("Total() mismatch")
	}
	_ = network.PortSE
}
