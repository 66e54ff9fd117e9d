package network

import (
	"testing"
	"testing/quick"

	"syncron/internal/sim"
	"syncron/internal/trace"
)

var clock = sim.NewClock(2500)

// testCores is the paper's 15 client cores per unit.
const testCores = 15

func newNet(units int) *Network {
	return New(clock, DefaultLinkLatency, MustBuild(KindAllToAll, units), testCores)
}

func TestIntraLatencyComposition(t *testing.T) {
	n := newNet(2)
	// 18-byte message: 2 flits + arbiter + 2 hops.
	got := n.IntraDelay(0, 0, PortSE, 18)
	want := clock.Cycles(2 + ArbiterCycles + HopCycles*Hops)
	if got != want {
		t.Fatalf("intra delay = %v, want %v", got, want)
	}
}

// Every message size costs ceil(bytes/FlitBytes) flits (at least one) plus
// arbiter and hops, and holds its port for the flits alone.
func TestIntraDelayEverySize(t *testing.T) {
	n := newNet(1)
	fixed := clock.Cycles(ArbiterCycles + HopCycles*Hops)
	at := sim.Time(0)
	for bytes := 0; bytes <= 256; bytes++ {
		ser := clock.Cycles(int64(max(1, (bytes+FlitBytes-1)/FlitBytes)))
		at += sim.Microsecond // past the port's horizon: no queueing
		if got, want := n.IntraDelay(at, 0, PortSE, bytes), at+ser+fixed; got != want {
			t.Fatalf("%d bytes: arrival %v, want %v", bytes, got, want)
		}
		if got := n.IntraDelay(at, 0, PortSE, 0); got != at+ser+clock.Cycles(1)+fixed {
			t.Fatalf("%d bytes held the port until %v, want %v", bytes, got-clock.Cycles(1)-fixed, at+ser)
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

// A core port past the unit's cores panics instead of booking a port of
// the next unit's row.
func TestIntraDelayBadCorePortPanics(t *testing.T) {
	n := newNet(2)
	n.IntraDelay(0, 0, PortCore(testCores-1), 64)
	defer func() {
		if recover() == nil {
			t.Fatal("core port past the unit's cores did not panic")
		}
	}()
	n.IntraDelay(0, 0, PortCore(testCores), 64)
}

func TestInterLinkLatency(t *testing.T) {
	n := newNet(2)
	got := n.linkDelay(0, Link{0, 1}, 64)
	want := linkSerialization(64) + DefaultLinkLatency + clock.Cycles(LinkFixedCycles)
	if got != want {
		t.Fatalf("link delay = %v, want %v", got, want)
	}
	// The 40ns fixed latency must dominate a 64B serialization (5ns).
	if DefaultLinkLatency != 40*sim.Nanosecond {
		t.Fatalf("default link latency %v, want 40ns (Table 5)", DefaultLinkLatency)
	}
}

// Link serialization is integer picoseconds: at Table 5's 12.8 GB/s it
// matches the historical float64 math exactly and stays platform-independent
// (pure int64 arithmetic) over the whole byte range the simulator uses.
func TestLinkSerializationInteger(t *testing.T) {
	if got := linkSerialization(64); got != 5000 {
		t.Fatalf("64B at 12.8GB/s = %dps, want 5000", got)
	}
	if got := linkSerialization(18); got != 1406 { // 1406.25 truncates
		t.Fatalf("18B at 12.8GB/s = %dps, want 1406", got)
	}
	for bytes := 1; bytes <= 4096; bytes++ {
		got := linkSerialization(bytes)
		want := int64(bytes) * 1_000_000_000_000 / 12_800_000_000
		if int64(got) != want {
			t.Fatalf("linkSerialization(%d) = %d, want %d", bytes, got, want)
		}
	}
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
	want := 80*InterPJPerBit + 160*IntraPJPerBitHop*Hops
	if got := n.EnergyPJ(); got != want {
		t.Fatalf("energy = %f, want %f", got, want)
	}
}

// Multi-hop topologies pay inter-unit energy once per link traversed.
func TestEnergyScalesWithRouteLength(t *testing.T) {
	ringNet := New(clock, DefaultLinkLatency, MustBuild(KindRing, 8), testCores)
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
	n := New(clock, DefaultLinkLatency, MustBuild(KindStar, 4), testCores)
	col := trace.NewCollector()
	n.SetTracer(col)
	a := n.Transfer(0, 0, 1, PortSE, 64)
	if msgs := n.Stats.IntraMsgs.Value(); msgs != 2 {
		t.Fatalf("star transfer crossed %d crossbars, want 2 (src+dst only)", msgs)
	}
	// A second transfer into the same destination contends on the hub->1 link.
	b := n.Transfer(0, 2, 1, PortMemory, 64)
	if b <= a {
		t.Fatalf("hub link contention not modeled: %v then %v", a, b)
	}
	links := map[string]bool{}
	for _, r := range col.Records() {
		if r.What == trace.WhatLinkXfer {
			links[r.Where] = true
		}
	}
	if len(links) != 3 { // 0->hub, 2->hub, hub->1
		t.Fatalf("active links = %v, want 3", links)
	}
}
