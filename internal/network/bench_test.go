package network

import (
	"fmt"
	"testing"

	"syncron/internal/sim"
)

// BenchmarkTransfer exercises the hot path of every simulated message — the
// crossbar/link walk with its dense occupancy lookups — across topologies.
func BenchmarkTransfer(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			n := New(clock, DefaultLinkLatency, MustBuild(kind, 4), testCores)
			ports := []int{PortSE, PortMemory, PortCore(0), PortCore(7), PortCore(14)}
			b.ReportAllocs()
			b.ResetTimer()
			t := sim.Time(0)
			for i := 0; i < b.N; i++ {
				t += 100
				n.Transfer(t, i%4, (i+i/4)%4, ports[i%len(ports)], 16+i%64)
			}
		})
	}
}

// BenchmarkIntraDelay isolates the crossbar occupancy structure itself.
func BenchmarkIntraDelay(b *testing.B) {
	for _, cores := range []int{15, 64} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			n := New(clock, DefaultLinkLatency, MustBuild(KindAllToAll, 4), cores)
			b.ReportAllocs()
			b.ResetTimer()
			t := sim.Time(0)
			for i := 0; i < b.N; i++ {
				t += 50
				n.IntraDelay(t, i%4, PortCore(i%cores), 64)
			}
		})
	}
}
