package graphs_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"syncron/internal/workloads/graphs"
)

// generateFingerprints pins every input's adjacency lists, neighbor order
// included, at three scales: FNV-64 over N, M, and each vertex's degree and
// neighbors in list order. At scale 0.001 every input has the minimum 16
// vertices, so the initial clique is clamped to the vertex count for co
// (outDeg 25), which then has no attachment edges at all. Any change to the
// generator's RNG draw sequence or to the order it fills the lists moves a
// digest.
var generateFingerprints = map[string]uint64{
	"wk@0.001": 0x933ba9dcd20e79c0,
	"sl@0.001": 0x9f9f0037e0eabda7,
	"sx@0.001": 0xe5b02f2f6a5930c4,
	"co@0.001": 0x081bded4f83ef5cd,
	"wk@0.1":   0xcaf93a956abd886a,
	"sl@0.1":   0x868e606620ca5462,
	"sx@0.1":   0xcadabdca97f01d0f,
	"co@0.1":   0x0fe05048903d34ba,
	"wk@1":     0x37f8d16286808700,
	"sl@1":     0xb73e58977167a6e9,
	"sx@1":     0x49ac8dbea5fa2690,
	"co@1":     0xadc8c9b456b0da2a,
}

func adjacencyDigest(g *graphs.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N))
	put(uint64(g.M))
	for _, adj := range g.Adj {
		put(uint64(len(adj)))
		for _, w := range adj {
			binary.LittleEndian.PutUint32(buf[:4], uint32(w))
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}

func TestGenerateFingerprint(t *testing.T) {
	for _, scale := range []float64{0.001, 0.1, 1} {
		for _, name := range graphs.Inputs() {
			key := fmt.Sprintf("%s@%g", name, scale)
			g := graphs.Load(name, scale)
			if got, want := adjacencyDigest(g), generateFingerprints[key]; got != want {
				t.Errorf("%s: adjacency digest %#x, want %#x", key, got, want)
			}
			// Each list must end where its capacity ends, so an append to
			// one vertex's list can never overwrite the next one's.
			for v, adj := range g.Adj {
				if cap(adj) != len(adj) {
					t.Fatalf("%s: vertex %d has len %d but cap %d", key, v, len(adj), cap(adj))
				}
			}
		}
	}
}

// BenchmarkGenerate builds all four inputs at the default experiment scale,
// the graph share of every graph workload's set-up.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range graphs.Inputs() {
			graphs.Load(name, 1)
		}
	}
}
