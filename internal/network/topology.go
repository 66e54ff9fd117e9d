package network

import (
	"fmt"
	"strings"
)

// Link is one directed inter-unit link of a topology. Endpoints are node
// ids: NDP units 0..Units()-1, plus any switch nodes a topology introduces
// (the Star hub). Each Link is booked as its own sim.Resource inside
// Network.
type Link struct {
	Src, Dst int
}

// Kind names a topology family.
type Kind string

// Supported topology kinds.
const (
	// KindAllToAll is one dedicated serial link per ordered unit pair — the
	// paper's Figure-1 full point-to-point interconnect and the default.
	KindAllToAll Kind = "alltoall"
	// KindMesh2D arranges units on the most-square 2D grid that factors the
	// unit count exactly, with dimension-ordered (X-then-Y) routing.
	KindMesh2D Kind = "mesh"
	// KindRing connects units in a bidirectional ring, routing the shorter
	// way around (ties go clockwise).
	KindRing Kind = "ring"
	// KindStar routes every unit pair through one shared off-chip switch
	// (host hub), modeling a system without direct unit-to-unit links.
	KindStar Kind = "star"
)

// kinds is every topology kind in documentation order, with the switch
// nodes it adds beyond the units and its route function: the ordered links
// a message from unit src to unit dst (distinct, both < n) traverses, the
// first leaving src and the last entering dst. Kinds, ParseKind and Build
// all read this one table.
var kinds = []struct {
	kind     Kind
	switches int
	route    func(n, src, dst int) []Link
}{
	{KindAllToAll, 0, func(_, src, dst int) []Link { return []Link{{src, dst}} }},
	{KindMesh2D, 0, meshRoute},
	{KindRing, 0, ringRoute},
	// Everything goes through one switch node (id n): src -> hub -> dst.
	// The hub is not an NDP unit — it has no crossbar of its own;
	// contention shows up on its per-destination links.
	{KindStar, 1, func(n, src, dst int) []Link { return []Link{{src, n}, {n, dst}} }},
}

// Kinds returns every supported topology kind in documentation order.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	for i, k := range kinds {
		out[i] = k.kind
	}
	return out
}

// ParseKind resolves a topology name; the empty string means the default
// AllToAll.
func ParseKind(name string) (Kind, error) {
	k := Kind(strings.ToLower(strings.TrimSpace(name)))
	if k == "" {
		return KindAllToAll, nil
	}
	for _, known := range kinds {
		if k == known.kind {
			return k, nil
		}
	}
	return "", fmt.Errorf("network: unknown topology %q (want alltoall, mesh, ring, or star)", name)
}

// Topology is how the NDP units are wired: the route of every ordered unit
// pair, computed once by Build. Routes are deterministic, so Route(src, dst)
// always returns the same links.
type Topology struct {
	kind     Kind
	units    int
	nodes    int      // units plus switch nodes (Star's hub)
	routes   [][]Link // routes[src*units+dst]; nil when src == dst
	diameter int      // the longest route, in links
}

// Build constructs the topology of the given kind over units NDP units.
func Build(kind Kind, units int) (Topology, error) {
	if units < 1 {
		return Topology{}, fmt.Errorf("network: topology over %d units", units)
	}
	if kind == "" {
		kind = KindAllToAll
	}
	for _, k := range kinds {
		if k.kind != kind {
			continue
		}
		t := Topology{kind: kind, units: units, nodes: units + k.switches,
			routes: make([][]Link, units*units)}
		for src := 0; src < units; src++ {
			for dst := 0; dst < units; dst++ {
				if src != dst {
					r := k.route(units, src, dst)
					t.routes[src*units+dst] = r
					t.diameter = max(t.diameter, len(r))
				}
			}
		}
		return t, nil
	}
	return Topology{}, fmt.Errorf("network: unknown topology kind %q", kind)
}

// MustBuild is Build for statically valid arguments; it panics on error.
func MustBuild(kind Kind, units int) Topology {
	t, err := Build(kind, units)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind names the topology (one of the Kind constants).
func (t Topology) Kind() Kind { return t.kind }

// Units is the number of NDP units connected.
func (t Topology) Units() int { return t.units }

// Nodes is Units plus any internal switch nodes (Star's hub); link
// endpoints and link-port ids range over [0, Nodes).
func (t Topology) Nodes() int { return t.nodes }

// Diameter is the maximum route length (in links) between any unit pair.
func (t Topology) Diameter() int { return t.diameter }

// Route returns the ordered inter-unit links a message from unit src to
// unit dst traverses; callers must not modify it. src and dst must be
// distinct units.
func (t Topology) Route(src, dst int) []Link {
	if src == dst || src < 0 || dst < 0 || src >= t.units || dst >= t.units {
		panic(fmt.Sprintf("network: bad route pair (%d, %d) on %s/%d units",
			src, dst, t.kind, t.units))
	}
	return t.routes[src*t.units+dst]
}

// meshWidth is the row length of the most-square exact factorization
// w x n/w of n units, w the larger factor (a prime count degenerates to a
// 1D line, which dimension-ordered routing handles fine).
func meshWidth(n int) int {
	w := n
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			w = n / f
		}
	}
	return w
}

// meshRoute is dimension-ordered routing on the meshWidth(n)-wide grid:
// first along X to the destination column, then along Y. Unit u sits at
// (u % w, u / w).
func meshRoute(n, src, dst int) []Link {
	w := meshWidth(n)
	var route []Link
	x, y := src%w, src/w
	dx, dy := dst%w, dst/w
	cur := src
	step := func(next int) {
		route = append(route, Link{cur, next})
		cur = next
	}
	for x != dx {
		if x < dx {
			x++
		} else {
			x--
		}
		step(y*w + x)
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		step(y*w + x)
	}
	return route
}

// ringRoute connects unit u to (u+1)%n and (u-1+n)%n and takes the shorter
// direction, clockwise (+1) on ties.
func ringRoute(n, src, dst int) []Link {
	cw := ((dst - src) + n) % n // clockwise distance
	step := 1
	if cw > n-cw {
		step = -1
	}
	var route []Link
	for cur := src; cur != dst; {
		next := ((cur + step) + n) % n
		route = append(route, Link{cur, next})
		cur = next
	}
	return route
}
