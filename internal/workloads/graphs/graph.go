// Package graphs implements the paper's graph workloads: the six CRONO /
// Green-Marl push-style applications (bfs, cc, sssp, pr, tf, tc) with
// fine-grained per-vertex locks on the read-write output array and
// across-unit barriers between iterations, running on synthetic power-law
// graphs that stand in for the paper's real inputs (wikipedia-20051105,
// soc-LiveJournal1, sx-stackoverflow, com-Orkut). The real datasets are not
// shipped; what the synchronization traffic depends on is each input's degree
// skew and the share of edges that cross NDP units, and the generator
// reproduces both deterministically at any scale.
package graphs

import (
	"fmt"

	"syncron/internal/sim"
)

// Graph is an undirected graph in CSR-like adjacency form.
type Graph struct {
	Name string
	N    int
	Adj  [][]int32
	M    int // undirected edge count
}

// Degree returns vertex v's degree.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// Inputs lists the paper's graph names in Table-6 order.
func Inputs() []string { return []string{"wk", "sl", "sx", "co"} }

// inputShape holds the synthetic stand-in parameters for each named input.
// Vertices scale with the caller's factor; the attachment parameter and seed
// vary so the four graphs have distinct degree skew, like the real inputs.
type inputShape struct {
	vertices int
	outDeg   int // preferential-attachment edges per new vertex
	seed     uint64
}

var shapes = map[string]inputShape{
	"wk": {vertices: 4000, outDeg: 6, seed: 11},  // wikipedia: high skew
	"sl": {vertices: 6000, outDeg: 9, seed: 22},  // LiveJournal: denser
	"sx": {vertices: 5000, outDeg: 5, seed: 33},  // stackoverflow: sparse, skewed
	"co": {vertices: 3000, outDeg: 25, seed: 44}, // Orkut: dense
}

// Load synthesizes the named input at the given scale (1.0 reproduces the
// default experiment size; tests use smaller scales).
func Load(name string, scale float64) *Graph {
	s, ok := shapes[name]
	if !ok {
		panic(fmt.Sprintf("graphs: unknown input %q", name))
	}
	n := int(float64(s.vertices) * scale)
	if n < 16 {
		n = 16
	}
	return generate(name, n, s.outDeg, s.seed)
}

// generate builds a power-law graph with community locality: each new vertex
// attaches outDeg edges, mostly within a sliding window of recent vertices
// (preferring the window's hub vertices, which produces the degree skew of
// real social/web graphs), with a long-range edge fraction. The windowed
// structure means a contiguous vertex partition keeps ~75-80% of edges
// internal — matching the paper's observation that ~24% of pr.wk's accesses
// go to remote NDP units (§6.4.2).
//
// The first k = min(outDeg+1, n) vertices form a clique. Every attachment
// edge (u, v) has u < v, so none is dropped and the edge count is known
// before any draw. The lists share one backing array of 2m entries, and each
// list's capacity ends where it does, so an append to one list cannot
// overwrite the next. Each target is drawn once, into backing's last
// (n−k)·outDeg slots; their counts lay out the lists, and the clique goes
// first. Then each new vertex v, in order, moves its outDeg targets to the
// head of its own list (in edge order they are its first entries) and
// appends v to each target's list. This is safe in place: every vertex from
// v on has at least outDeg entries, so v's list starts at or before its
// drawn slots and its first outDeg entries end at or before v+1's, and v
// appends only to lists of vertices below v.
func generate(name string, n, outDeg int, seed uint64) *Graph {
	k := min(outDeg+1, n)
	m := k*(k-1)/2 + (n-k)*outDeg
	backing := make([]int32, 2*m)
	drawn := backing[m+k*(k-1)/2:]

	rng := sim.NewRNG(seed)
	window := max(n/16, 32)
	const hubSpacing = 16
	for v := k; v < n; v++ {
		for e := 0; e < outDeg; e++ {
			var u int
			switch {
			case rng.Float64() < 0.20:
				u = rng.Intn(v) // long-range edge
			default:
				lo := max(v-window, 0)
				u = lo + rng.Intn(v-lo)
				if rng.Float64() < 0.5 {
					// Snap to the neighborhood's hub: every hubSpacing-th
					// vertex accumulates degree (power-law-ish skew).
					u -= u % hubSpacing
				}
			}
			drawn[(v-k)*outDeg+e] = int32(u)
		}
	}

	deg := make([]int32, n)
	for v := range deg {
		if v < k {
			deg[v] = int32(k - 1)
		} else {
			deg[v] = int32(outDeg)
		}
	}
	for _, u := range drawn {
		deg[u]++
	}
	adj := make([][]int32, n)
	off := 0
	for v, d := range deg {
		adj[v] = backing[off : off : off+int(d)]
		off += int(d)
	}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
		}
	}
	for v := k; v < n; v++ {
		own := adj[v][:outDeg]
		copy(own, drawn[(v-k)*outDeg:])
		adj[v] = own
		for _, u := range own {
			adj[u] = append(adj[u], int32(v))
		}
	}
	return &Graph{Name: name, N: n, Adj: adj, M: m}
}

// Partition assigns each vertex to one of units parts.
type Partition []int

// HashPartition is the default static partitioning: contiguous vertex ranges
// per unit (the paper statically partitions graphs across NDP units). On the
// windowed graphs generate produces, contiguous ranges are both balanced
// (hubs recur throughout the id space) and locality-preserving.
func HashPartition(g *Graph, units int) Partition {
	p := make(Partition, g.N)
	per := (g.N + units - 1) / units
	for v := range p {
		p[v] = v / per % units
	}
	return p
}

// GreedyPartition is the METIS stand-in used by Figure 19: it starts from
// the contiguous static partition and applies balance-constrained local
// refinement (Kernighan-Lin style single-vertex moves), which monotonically
// reduces crossing edges — the effect Figure 19 studies.
func GreedyPartition(g *Graph, units int) Partition {
	p := HashPartition(g, units)
	counts := make([]int, units)
	for _, u := range p {
		counts[u]++
	}
	limit := (g.N+units-1)/units + g.N/(units*10) + 1
	nb := make([]int, units) // neighbors of v per part
	for pass := 0; pass < 4; pass++ {
		moved := false
		for v := 0; v < g.N; v++ {
			if len(g.Adj[v]) == 0 {
				continue
			}
			clear(nb)
			for _, w := range g.Adj[v] {
				nb[p[w]]++
			}
			best := p[v]
			for u := 0; u < units; u++ {
				if u == p[v] || counts[u] >= limit {
					continue
				}
				if nb[u] > nb[best] {
					best = u
				}
			}
			if best != p[v] {
				counts[p[v]]--
				counts[best]++
				p[v] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return p
}
