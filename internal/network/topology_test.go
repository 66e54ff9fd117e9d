package network

import (
	"testing"
	"testing/quick"
)

// routeOK checks the structural invariants every topology must satisfy for
// one (src, dst) pair: the route starts at src, ends at dst, chains
// contiguously, never revisits a node (loop-free), stays within the node-id
// space, and respects the advertised diameter.
func routeOK(t *testing.T, topo Topology, src, dst int) []Link {
	t.Helper()
	route := topo.Route(src, dst)
	if len(route) == 0 {
		t.Fatalf("%s: empty route %d->%d", topo.Kind(), src, dst)
	}
	if route[0].Src != src || route[len(route)-1].Dst != dst {
		t.Fatalf("%s: route %d->%d has endpoints %v", topo.Kind(), src, dst, route)
	}
	if len(route) > topo.Diameter() {
		t.Fatalf("%s: route %d->%d length %d exceeds diameter %d",
			topo.Kind(), src, dst, len(route), topo.Diameter())
	}
	visited := map[int]bool{src: true}
	cur := src
	for _, l := range route {
		if l.Src != cur {
			t.Fatalf("%s: route %d->%d breaks at %v (expected src %d)", topo.Kind(), src, dst, l, cur)
		}
		if l.Dst < 0 || l.Dst >= topo.Nodes() {
			t.Fatalf("%s: route %d->%d leaves node space: %v", topo.Kind(), src, dst, l)
		}
		if visited[l.Dst] {
			t.Fatalf("%s: route %d->%d revisits node %d", topo.Kind(), src, dst, l.Dst)
		}
		visited[l.Dst] = true
		cur = l.Dst
	}
	return route
}

// minDist computes the true shortest path length (in links) between units by
// breadth-first search over the topology's link graph, independently of the
// Route implementation.
func minDist(topo Topology, src, dst int) int {
	adj := map[int][]int{}
	for a := 0; a < topo.Units(); a++ {
		for b := 0; b < topo.Units(); b++ {
			if a == b {
				continue
			}
			r := topo.Route(a, b)
			for _, l := range r {
				adj[l.Src] = append(adj[l.Src], l.Dst)
			}
		}
	}
	dist := map[int]int{src: 0}
	frontier := []int{src}
	for len(frontier) > 0 {
		var next []int
		for _, n := range frontier {
			for _, m := range adj[n] {
				if _, seen := dist[m]; !seen {
					dist[m] = dist[n] + 1
					next = append(next, m)
				}
			}
		}
		frontier = next
	}
	return dist[dst]
}

// Property tests over every topology and a range of unit counts: routes are
// minimal over the topology's own link graph, loop-free, and symmetric in
// length (|route(a,b)| == |route(b,a)|), and the diameter is attained by
// some route (zero on a single unit).
func TestRouteProperties(t *testing.T) {
	for _, kind := range Kinds() {
		for _, units := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
			topo := MustBuild(kind, units)
			longest := 0
			for src := 0; src < units; src++ {
				for dst := 0; dst < units; dst++ {
					if src == dst {
						continue
					}
					route := routeOK(t, topo, src, dst)
					if want := minDist(topo, src, dst); len(route) != want {
						t.Fatalf("%s/%d: route %d->%d length %d, want minimal %d",
							kind, units, src, dst, len(route), want)
					}
					if back := topo.Route(dst, src); len(back) != len(route) {
						t.Fatalf("%s/%d: asymmetric route lengths %d->%d: %d vs %d",
							kind, units, src, dst, len(route), len(back))
					}
					longest = max(longest, len(route))
				}
			}
			if longest != topo.Diameter() {
				t.Fatalf("%s/%d: longest route %d links, diameter %d", kind, units, longest, topo.Diameter())
			}
		}
	}
}

// Routes are deterministic: the same pair always yields the same links.
func TestRouteDeterministic(t *testing.T) {
	if err := quick.Check(func(a, b uint8, pick uint8) bool {
		units := 2 + int(pick%15)
		src, dst := int(a)%units, int(b)%units
		if src == dst {
			return true
		}
		for _, kind := range Kinds() {
			topo := MustBuild(kind, units)
			r1, r2 := topo.Route(src, dst), topo.Route(src, dst)
			if len(r1) != len(r2) {
				return false
			}
			for i := range r1 {
				if r1[i] != r2[i] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllShape(t *testing.T) {
	topo := MustBuild(KindAllToAll, 4)
	if topo.Diameter() != 1 || topo.Nodes() != 4 {
		t.Fatalf("alltoall/4: diameter=%d nodes=%d", topo.Diameter(), topo.Nodes())
	}
	if r := topo.Route(1, 3); len(r) != 1 || r[0] != (Link{1, 3}) {
		t.Fatalf("alltoall route = %v", r)
	}
}

func TestMeshShape(t *testing.T) {
	for _, tc := range []struct{ units, w, h int }{
		{4, 2, 2}, {6, 3, 2}, {5, 5, 1}, // prime: 1D line
	} {
		if w := meshWidth(tc.units); w != tc.w || tc.units/w != tc.h {
			t.Fatalf("mesh of %d units = %dx%d, want %dx%d", tc.units, w, tc.units/w, tc.w, tc.h)
		}
	}
	// Dimension-ordered: 0=(0,0) -> 3=(1,1) goes X first through 1=(1,0).
	if r := MustBuild(KindMesh2D, 4).Route(0, 3); len(r) != 2 || r[0] != (Link{0, 1}) || r[1] != (Link{1, 3}) {
		t.Fatalf("mesh XY route = %v", r)
	}
}

func TestRingShape(t *testing.T) {
	topo := MustBuild(KindRing, 6)
	if topo.Diameter() != 3 {
		t.Fatalf("ring/6: diameter=%d", topo.Diameter())
	}
	// Shortest way around: 0->5 goes counter-clockwise, one hop.
	if r := topo.Route(0, 5); len(r) != 1 || r[0] != (Link{0, 5}) {
		t.Fatalf("ring route 0->5 = %v", r)
	}
	// Ties (opposite side) break clockwise.
	if r := topo.Route(0, 3); len(r) != 3 || r[0] != (Link{0, 1}) {
		t.Fatalf("ring tie route 0->3 = %v", r)
	}
}

func TestStarShape(t *testing.T) {
	topo := MustBuild(KindStar, 4)
	if topo.Nodes() != 5 || topo.Diameter() != 2 {
		t.Fatalf("star/4: nodes=%d diameter=%d", topo.Nodes(), topo.Diameter())
	}
	if r := topo.Route(0, 3); len(r) != 2 || r[0] != (Link{0, 4}) || r[1] != (Link{4, 3}) {
		t.Fatalf("star route = %v", r)
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{{"", KindAllToAll}, {"alltoall", KindAllToAll}, {" Mesh ", KindMesh2D},
		{"ring", KindRing}, {"STAR", KindStar}} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("torus"); err == nil {
		t.Fatal("ParseKind accepted an unknown topology")
	}
	if _, err := Build(KindMesh2D, 0); err == nil {
		t.Fatal("Build accepted zero units")
	}
}
