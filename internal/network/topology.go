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

// Topology describes how NDP units are wired and how messages are routed
// between them. Implementations must be deterministic: Route(src, dst) always
// returns the same link sequence for the same arguments.
type Topology interface {
	// Kind names the topology (one of the Kind constants).
	Kind() Kind
	// Units is the number of NDP units connected.
	Units() int
	// Nodes is Units plus any internal switch nodes (Star's hub); link
	// endpoints and link-port ids range over [0, Nodes).
	Nodes() int
	// Route returns the ordered inter-unit links a message from unit src to
	// unit dst traverses. src and dst must be distinct units; the first
	// link leaves src and the last link enters dst.
	Route(src, dst int) []Link
	// Diameter is the maximum route length (in links) between any unit pair.
	Diameter() int
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

// Kinds returns every supported topology kind in documentation order.
func Kinds() []Kind { return []Kind{KindAllToAll, KindMesh2D, KindRing, KindStar} }

// ParseKind resolves a topology name; the empty string means the default
// AllToAll.
func ParseKind(name string) (Kind, error) {
	k := Kind(strings.ToLower(strings.TrimSpace(name)))
	if k == "" {
		return KindAllToAll, nil
	}
	for _, known := range Kinds() {
		if k == known {
			return k, nil
		}
	}
	return "", fmt.Errorf("network: unknown topology %q (want alltoall, mesh, ring, or star)", name)
}

// Build constructs the topology of the given kind over units NDP units.
func Build(kind Kind, units int) (Topology, error) {
	if units < 1 {
		return nil, fmt.Errorf("network: topology over %d units", units)
	}
	switch kind {
	case KindAllToAll, "":
		return allToAll{n: units}, nil
	case KindMesh2D:
		return newMesh2D(units), nil
	case KindRing:
		return ring{n: units}, nil
	case KindStar:
		return star{n: units}, nil
	}
	return nil, fmt.Errorf("network: unknown topology kind %q", kind)
}

// MustBuild is Build for statically valid arguments; it panics on error.
func MustBuild(kind Kind, units int) Topology {
	t, err := Build(kind, units)
	if err != nil {
		panic(err)
	}
	return t
}

// allToAll has a dedicated link for every ordered unit pair.
type allToAll struct{ n int }

func (t allToAll) Kind() Kind { return KindAllToAll }
func (t allToAll) Units() int { return t.n }
func (t allToAll) Nodes() int { return t.n }
func (t allToAll) Route(src, dst int) []Link {
	checkPair(t, src, dst)
	return []Link{{src, dst}}
}
func (t allToAll) Diameter() int {
	if t.n < 2 {
		return 0
	}
	return 1
}

// mesh2D is a W x H grid (W*H == n, the most-square factorization) with
// deterministic dimension-ordered routing: first along X to the destination
// column, then along Y. Unit u sits at (u % W, u / W).
type mesh2D struct{ n, w, h int }

// newMesh2D picks the most-square exact factorization of n (a prime count
// degenerates to a 1D line, which dimension-ordered routing handles fine).
func newMesh2D(n int) mesh2D {
	w := n
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			w = n / f // the larger factor of the most-square pair so far
		}
	}
	return mesh2D{n: n, w: w, h: n / w}
}

func (t mesh2D) Kind() Kind { return KindMesh2D }
func (t mesh2D) Units() int { return t.n }
func (t mesh2D) Nodes() int { return t.n }
func (t mesh2D) Route(src, dst int) []Link {
	checkPair(t, src, dst)
	var route []Link
	x, y := src%t.w, src/t.w
	dx, dy := dst%t.w, dst/t.w
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
		step(y*t.w + x)
	}
	for y != dy {
		if y < dy {
			y++
		} else {
			y--
		}
		step(y*t.w + x)
	}
	return route
}
func (t mesh2D) Diameter() int { return (t.w - 1) + (t.h - 1) }

// ring connects unit u to (u+1)%n and (u-1+n)%n; routes take the shorter
// direction, clockwise (+1) on ties.
type ring struct{ n int }

func (t ring) Kind() Kind { return KindRing }
func (t ring) Units() int { return t.n }
func (t ring) Nodes() int { return t.n }
func (t ring) Route(src, dst int) []Link {
	checkPair(t, src, dst)
	cw := ((dst - src) + t.n) % t.n // clockwise distance
	step := 1
	if cw > t.n-cw {
		step = -1
	}
	var route []Link
	for cur := src; cur != dst; {
		next := ((cur + step) + t.n) % t.n
		route = append(route, Link{cur, next})
		cur = next
	}
	return route
}
func (t ring) Diameter() int { return t.n / 2 }

// star routes everything through one shared switch node (id n): src -> hub,
// hub -> dst. The hub is not an NDP unit — it has no crossbar of its own;
// contention shows up on its per-destination links.
type star struct{ n int }

func (t star) Kind() Kind { return KindStar }
func (t star) Units() int { return t.n }
func (t star) Nodes() int { return t.n + 1 }
func (t star) Route(src, dst int) []Link {
	checkPair(t, src, dst)
	return []Link{{src, t.n}, {t.n, dst}}
}
func (t star) Diameter() int {
	if t.n < 2 {
		return 0
	}
	return 2
}

// checkPair validates a Route argument pair.
func checkPair(t Topology, src, dst int) {
	if src == dst || src < 0 || dst < 0 || src >= t.Units() || dst >= t.Units() {
		panic(fmt.Sprintf("network: bad route pair (%d, %d) on %s/%d units",
			src, dst, t.Kind(), t.Units()))
	}
}
