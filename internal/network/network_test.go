package network

import (
	"testing"
	"testing/quick"

	"syncron/internal/sim"
)

func newNet(units int) *Network {
	return NewAllToAll(DefaultConfig(sim.NewClock(2500)), units)
}

func TestIntraLatencyComposition(t *testing.T) {
	n := newNet(2)
	cfg := n.Config()
	// 18-byte message: 2 flits + arbiter + 2 hops.
	got := n.IntraDelay(0, 0, PortSE, 18)
	want := cfg.CoreClock.Cycles(2 + cfg.ArbiterCycles + cfg.HopCycles*cfg.Hops)
	if got != want {
		t.Fatalf("intra delay = %v, want %v", got, want)
	}
}

// Every message size costs ceil(bytes/flitBytes) flits (at least one) plus
// arbiter and hops, and holds its port for the flits alone.
func TestIntraDelayEverySize(t *testing.T) {
	n := newNet(1)
	cfg := n.Config()
	fixed := cfg.CoreClock.Cycles(cfg.ArbiterCycles + cfg.HopCycles*cfg.Hops)
	at := sim.Time(0)
	for bytes := 0; bytes <= 256; bytes++ {
		ser := cfg.CoreClock.Cycles(int64(max(1, (bytes+15)/16)))
		at += sim.Microsecond // past the port's horizon: no queueing
		if got, want := n.IntraDelay(at, 0, PortSE, bytes), at+ser+fixed; got != want {
			t.Fatalf("%d bytes: arrival %v, want %v", bytes, got, want)
		}
		if got := n.IntraDelay(at, 0, PortSE, 0); got != at+ser+cfg.CoreClock.Cycles(1)+fixed {
			t.Fatalf("%d bytes held the port until %v, want %v", bytes, got-cfg.CoreClock.Cycles(1)-fixed, at+ser)
		}
	}
}

func TestIntraPortQueueing(t *testing.T) {
	n := newNet(1)
	a := n.IntraDelay(0, 0, PortSE, 64)
	b := n.IntraDelay(0, 0, PortSE, 64) // same port: serializes
	if b <= a {
		t.Fatalf("same-port messages did not serialize: %v, %v", a, b)
	}
	c := n.IntraDelay(0, 0, PortMemory, 64) // different port: parallel
	if c != a {
		t.Fatalf("different-port message was delayed: %v vs %v", c, a)
	}
}

// The dense port remap must keep every distinct port id on a distinct
// occupancy slot: cores, SE, memory, and link egress ports never alias.
func TestPortIndexInjective(t *testing.T) {
	n := newNet(4)
	ports := []int{PortSE, PortMemory}
	for c := 0; c < 32; c++ {
		ports = append(ports, PortCore(c))
	}
	for u := 0; u < 4; u++ {
		ports = append(ports, linkPort(u))
	}
	seen := map[int]int{}
	for _, p := range ports {
		idx := n.portIndex(p)
		if prev, dup := seen[idx]; dup {
			t.Fatalf("ports %d and %d map to the same dense index %d", prev, p, idx)
		}
		seen[idx] = p
	}
}

func TestInterLinkLatency(t *testing.T) {
	n := newNet(2)
	cfg := n.Config()
	got := n.InterDelay(0, 0, 1, 64)
	ser := linkSerialization(64, cfg.LinkBytesPerSec)
	want := ser + cfg.LinkLatency + cfg.CoreClock.Cycles(cfg.LinkFixedCycles)
	if got != want {
		t.Fatalf("inter delay = %v, want %v", got, want)
	}
	// The 40ns fixed latency must dominate a 64B serialization (5ns).
	if cfg.LinkLatency != 40*sim.Nanosecond {
		t.Fatalf("default link latency %v, want 40ns (Table 5)", cfg.LinkLatency)
	}
}

// Link serialization is integer picoseconds: on the default 12.8 GB/s it
// matches the historical float64 math exactly, and on bandwidths that are
// not powers of two it stays platform-independent (pure int64 arithmetic)
// and within one picosecond of the real-valued result.
func TestLinkSerializationInteger(t *testing.T) {
	if got := linkSerialization(64, 12_800_000_000); got != 5000 {
		t.Fatalf("64B at 12.8GB/s = %dps, want 5000", got)
	}
	if got := linkSerialization(18, 12_800_000_000); got != 1406 { // 1406.25 truncates
		t.Fatalf("18B at 12.8GB/s = %dps, want 1406", got)
	}
	// Non-power-of-two bandwidth: 12.3 GB/s.
	const bps = 12_300_000_000
	if got := linkSerialization(64, bps); got != 5203 { // 5203.25... truncates
		t.Fatalf("64B at 12.3GB/s = %dps, want 5203", got)
	}
	// The whole byte range used by the simulator stays exact int64 math.
	for bytes := 1; bytes <= 4096; bytes++ {
		got := linkSerialization(bytes, bps)
		want := int64(bytes) * 1_000_000_000_000 / bps
		if int64(got) != want {
			t.Fatalf("linkSerialization(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestInterSameUnitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InterDelay within one unit must panic")
		}
	}()
	newNet(2).InterDelay(0, 1, 1, 64)
}

func TestTransferCountsTraffic(t *testing.T) {
	n := newNet(2)
	n.Transfer(0, 0, 0, PortSE, 18)
	intra0 := n.Stats.IntraBits.Value()
	if intra0 != 18*8 {
		t.Fatalf("intra bits = %d, want %d", intra0, 18*8)
	}
	n.Transfer(0, 0, 1, PortSE, 18)
	if n.Stats.InterBits.Value() != 18*8 {
		t.Fatalf("inter bits = %d, want %d", n.Stats.InterBits.Value(), 18*8)
	}
	// A cross-unit transfer also crosses both endpoint crossbars.
	if n.Stats.IntraBits.Value() != intra0+2*18*8 {
		t.Fatalf("cross-unit transfer should add 2 intra legs: %d", n.Stats.IntraBits.Value())
	}
	if n.Stats.InterMsgs.Value() != 1 || n.Stats.LinkHops.Value() != 1 {
		t.Fatalf("alltoall cross-unit transfer: msgs=%d hops=%d, want 1/1",
			n.Stats.InterMsgs.Value(), n.Stats.LinkHops.Value())
	}
}

// Property: transfers never complete before they start, cross-unit transfers
// are never faster than local ones, and bigger messages never arrive earlier
// (on a fresh network).
func TestTransferMonotonicity(t *testing.T) {
	if err := quick.Check(func(bytes uint16, start uint32) bool {
		b := int(bytes%4096) + 1
		at := sim.Time(start)
		n1 := newNet(2)
		local := n1.Transfer(at, 0, 0, PortSE, b)
		n2 := newNet(2)
		remote := n2.Transfer(at, 0, 1, PortSE, b)
		if local < at || remote < at || remote <= local {
			return false
		}
		n3 := newNet(2)
		bigger := n3.Transfer(at, 0, 1, PortSE, b+64)
		return bigger >= remote
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyModel(t *testing.T) {
	n := newNet(2)
	n.Transfer(0, 0, 1, PortSE, 10) // 80 bits inter + 160 bits intra (2 legs)
	cfg := n.Config()
	want := 80*cfg.InterPJPerBit + 160*cfg.IntraPJPerBitHop*float64(cfg.Hops)
	if got := n.EnergyPJ(); got != want {
		t.Fatalf("energy = %f, want %f", got, want)
	}
}

// Multi-hop topologies pay inter-unit energy once per link traversed.
func TestEnergyScalesWithRouteLength(t *testing.T) {
	cfg := DefaultConfig(sim.NewClock(2500))
	ringNet := New(cfg, MustBuild(KindRing, 8))
	ringNet.Transfer(0, 0, 4, PortSE, 10) // 4 links around the ring
	if hops := ringNet.Stats.LinkHops.Value(); hops != 4 {
		t.Fatalf("ring 0->4 link hops = %d, want 4", hops)
	}
	if bits := ringNet.Stats.InterBits.Value(); bits != 4*80 {
		t.Fatalf("ring inter bits = %d, want %d", bits, 4*80)
	}
	if avg := ringNet.Stats.AvgRouteLinks(); avg != 4 {
		t.Fatalf("avg route links = %f, want 4", avg)
	}
	// Intermediate units' crossbars are crossed too: 0 egress, 1..3 forward,
	// 4 delivery = 5 intra legs.
	if msgs := ringNet.Stats.IntraMsgs.Value(); msgs != 5 {
		t.Fatalf("ring intra legs = %d, want 5", msgs)
	}
}

// Star's hub is a switch, not a unit: no crossbar legs at the hub, and hub
// links serialize contending transfers.
func TestStarHubContention(t *testing.T) {
	cfg := DefaultConfig(sim.NewClock(2500))
	n := New(cfg, MustBuild(KindStar, 4))
	a := n.Transfer(0, 0, 1, PortSE, 64)
	if msgs := n.Stats.IntraMsgs.Value(); msgs != 2 {
		t.Fatalf("star transfer crossed %d crossbars, want 2 (src+dst only)", msgs)
	}
	// A second transfer into the same destination contends on the hub->1 link.
	b := n.Transfer(0, 2, 1, PortMemory, 64)
	if b <= a {
		t.Fatalf("hub link contention not modeled: %v then %v", a, b)
	}
	loads := n.LinkLoads()
	if len(loads) != 3 { // 0->hub, 2->hub, hub->1
		t.Fatalf("link loads = %v, want 3 active links", loads)
	}
}
