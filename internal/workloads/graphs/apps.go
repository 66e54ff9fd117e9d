package graphs

import (
	"fmt"
	"slices"

	"syncron/internal/arch"
	"syncron/internal/program"
)

// body is one core's program over its vertices.
type body func(ctx *program.Ctx, mine []int)

// app is one graph application: setup returns, for a placed layout, the
// per-core body and the check of the output against a host-side reference.
type app struct {
	name  string
	setup func(ly *layout) (body, func() error)
}

// apps lists the six applications in Table-6 order.
var apps = []app{{"bfs", bfs}, {"cc", cc}, {"sssp", sssp}, {"pr", pr}, {"tf", tf}, {"tc", tc}}

// Apps lists the six applications in Table-6 order.
func Apps() []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.name
	}
	return names
}

// maxIters caps the propagation rounds of bfs, cc and sssp.
const maxIters = 64

// layout is the simulated-memory placement of a graph: per-vertex output
// data and lock lines in the vertex's unit (shared read-write), adjacency
// lists in the vertex's unit (shared read-only, cacheable), and one barrier
// across every core (placed for every app; tf never reaches it).
type layout struct {
	g       *Graph
	data    []uint64
	lock    []uint64
	adj     []uint64
	barrier uint64
	cores   int
}

// Build places g on m according to part, registers the named application's
// program on every core and returns the application's functional check.
func Build(m *arch.Machine, r *program.Runner, name string, g *Graph, part Partition) func() error {
	i := slices.IndexFunc(apps, func(a app) bool { return a.name == name })
	if i < 0 {
		panic(fmt.Sprintf("graphs: unknown app %q", name))
	}
	ly := &layout{g: g, cores: m.NumCores(),
		data: make([]uint64, g.N), lock: make([]uint64, g.N), adj: make([]uint64, g.N)}
	for v := 0; v < g.N; v++ {
		u := part[v]
		ly.data[v] = m.AllocShared(u, 64)
		// Lock lines are only touched through the sync backend, so they live
		// in the cacheable arena (servers cache them; SynCron uses only the
		// address for identity and home-unit selection).
		ly.lock[v] = m.Alloc(u, 64)
		sz := uint64(len(g.Adj[v]) * 8)
		if sz == 0 {
			sz = 8
		}
		ly.adj[v] = m.Alloc(u, sz)
	}
	ly.barrier = m.Alloc(0, 64)
	body, check := apps[i].setup(ly)
	r.AddN(ly.cores, func(int) program.Program {
		return func(ctx *program.Ctx) { body(ctx, mine(m, part, ctx.ID)) }
	})
	return check
}

// always is the settled predicate of a read whose value the program uses
// but whose outcome no other core can change before it is used.
func always() bool { return true }

// readAdj models reading v's adjacency list (8 neighbors per line).
func (ly *layout) readAdj(ctx *program.Ctx, v int) {
	lines := (len(ly.g.Adj[v]) + 7) / 8
	if lines == 0 {
		lines = 1
	}
	for i := 0; i < lines; i++ {
		ctx.Read(ly.adj[v] + uint64(i*64))
	}
}

// mine returns the vertices assigned to global core id: each unit's vertices
// are split evenly among that unit's cores (the paper distributes vertex
// data equally across cores).
func mine(m *arch.Machine, part Partition, core int) []int {
	unit := m.UnitOf(core)
	local := m.LocalOf(core)
	per := m.Cfg.CoresPerUnit
	var vs []int
	i := 0
	for v, u := range part {
		if u != unit {
			continue
		}
		if i%per == local {
			vs = append(vs, v)
		}
		i++
	}
	return vs
}

// roundDriver wraps the shared barrier-synchronized round structure: every
// core runs work(round) over its vertices, all cores barrier, core 0 decides
// whether another round is needed, all cores barrier again.
type roundDriver struct {
	ly       *layout
	cont     bool
	maxIters int
	prep     func(round int) bool // returns true to continue; run by core 0
}

func (rd *roundDriver) run(ctx *program.Ctx, work func(round int)) {
	for round := 0; ; round++ {
		work(round)
		ctx.BarrierAcrossUnits(rd.ly.barrier, rd.ly.cores)
		if ctx.ID == 0 {
			rd.cont = rd.prep(round) && round+1 < rd.maxIters
		}
		ctx.BarrierAcrossUnits(rd.ly.barrier, rd.ly.cores)
		if !rd.cont {
			return
		}
	}
}

// Kernel instruction costs: address arithmetic, bounds checks, and loop
// overhead of the real compiled push kernels (in-order cores, 1 IPC). These
// set the synchronization-to-computation ratio the paper's Figure 12
// workloads exhibit.
const (
	vertexInstrs = 40
	edgeInstrs   = 24
)

// edgeWeight derives a deterministic positive weight for edge (u,v).
func edgeWeight(u, v int32) int32 {
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	h := uint64(a)*0x9e3779b9 ^ uint64(b)*0x85ebca6b
	return int32(h%15) + 1
}

// hub returns the highest-degree vertex, the natural BFS/SSSP source.
func hub(g *Graph) int {
	best := 0
	for v := 1; v < g.N; v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// ---- BFS ----

func bfs(ly *layout) (body, func() error) {
	g := ly.g
	src := hub(g)
	dist := make([]int32, g.N)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	active := make([]bool, g.N)
	next := make([]bool, g.N)
	active[src] = true
	anyNext := false
	rd := &roundDriver{ly: ly, maxIters: maxIters,
		prep: func(round int) bool {
			active, next = next, active
			for v := range next {
				next[v] = false
			}
			cont := anyNext
			anyNext = false
			return cont
		}}
	run := func(ctx *program.Ctx, mine []int) {
		rd.run(ctx, func(round int) {
			for _, v := range mine {
				if !active[v] {
					continue
				}
				ctx.Read(ly.data[v])
				ly.readAdj(ctx, v)
				ctx.Compute(vertexInstrs)
				for _, nb := range g.Adj[v] {
					ctx.Compute(edgeInstrs)
					// Unlocked check first. Settled: dist is set once, so a
					// visited neighbor stays visited.
					if ctx.ReadSettled(ly.data[nb], func() bool { return dist[nb] >= 0 }) {
						continue
					}
					ctx.Lock(ly.lock[nb])
					if dist[nb] < 0 { // recheck under the lock
						dist[nb] = dist[v] + 1
						ctx.Write(ly.data[nb])
						next[nb] = true
						anyNext = true
					}
					ctx.Unlock(ly.lock[nb])
				}
			}
		})
	}
	return run, func() error {
		ref := bfsRef(g, src)
		for v := range ref {
			if ref[v] != dist[v] {
				return fmt.Errorf("bfs: dist[%d] = %d, want %d", v, dist[v], ref[v])
			}
		}
		return nil
	}
}

func bfsRef(g *Graph, src int) []int32 {
	dist := make([]int32, g.N)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range g.Adj[v] {
			if dist[nb] < 0 {
				dist[nb] = dist[v] + 1
				queue = append(queue, int(nb))
			}
		}
	}
	return dist
}

// ---- Connected Components (label propagation) ----

func cc(ly *layout) (body, func() error) {
	g := ly.g
	label := make([]int32, g.N)
	for v := range label {
		label[v] = int32(v)
	}
	changed := false
	rd := &roundDriver{ly: ly, maxIters: maxIters,
		prep: func(round int) bool {
			c := changed
			changed = false
			return c
		}}
	run := func(ctx *program.Ctx, mine []int) {
		// The scan's callbacks, built once per core over the vertex v and
		// neighbor list adj that the loop below sets.
		var v int
		var adj []int32
		addr := func(i int) uint64 { return ly.data[adj[i]] }
		improves := func(i int) bool { return label[v] < label[adj[i]] }
		scan := func(from int) int { return ctx.ScanReads(from, len(adj), edgeInstrs, addr, improves) }
		rd.run(ctx, func(round int) {
			for _, v = range mine {
				// Nothing up to the scan's first read checks shared state:
				// only the cacheable adjacency reads, the vertex's compute
				// and addr's read-only lookup run before the next yield.
				ctx.ReadSettled(ly.data[v], always)
				ly.readAdj(ctx, v)
				ctx.Compute(vertexInstrs)
				adj = g.Adj[v]
				// Unlocked check first. It does not settle (label[v] can
				// fall too), so ScanReads runs it at each read's completion,
				// where code after Read would, and never ahead of the read.
				for i := scan(0); i < len(adj); i = scan(i + 1) {
					nb := adj[i]
					ctx.Lock(ly.lock[nb])
					if label[v] < label[nb] {
						label[nb] = label[v]
						ctx.Write(ly.data[nb])
						changed = true
					}
					ctx.Unlock(ly.lock[nb])
				}
			}
		})
	}
	return run, func() error {
		for v := 0; v < g.N; v++ {
			for _, nb := range g.Adj[v] {
				if label[v] != label[nb] {
					return fmt.Errorf("cc: labels differ across edge (%d,%d): %d vs %d",
						v, nb, label[v], label[nb])
				}
			}
		}
		return nil
	}
}

// ---- SSSP (Bellman-Ford rounds) ----

func sssp(ly *layout) (body, func() error) {
	g := ly.g
	src := hub(g)
	const inf = int32(1 << 30)
	dist := make([]int32, g.N)
	for v := range dist {
		dist[v] = inf
	}
	dist[src] = 0
	changed := false
	rd := &roundDriver{ly: ly, maxIters: maxIters,
		prep: func(round int) bool {
			c := changed
			changed = false
			return c
		}}
	run := func(ctx *program.Ctx, mine []int) {
		// The scan's callbacks, built once per core over the vertex v and
		// neighbor list adj that the loop below sets. addr computes the
		// candidate distance nd before each read, as the kernel does.
		var v int
		var adj []int32
		var nd int32
		addr := func(i int) uint64 {
			nd = dist[v] + edgeWeight(int32(v), adj[i])
			return ly.data[adj[i]]
		}
		improves := func(i int) bool { return nd < dist[adj[i]] }
		scan := func(from int) int { return ctx.ScanReads(from, len(adj), edgeInstrs, addr, improves) }
		rd.run(ctx, func(round int) {
			for _, v = range mine {
				if dist[v] >= inf {
					continue
				}
				ctx.Read(ly.data[v])
				ly.readAdj(ctx, v)
				ctx.Compute(vertexInstrs)
				adj = g.Adj[v]
				// Unlocked check first. It does not settle (nd comes from
				// dist[v], which can fall), so ScanReads computes nd where
				// the code before each read runs and checks it at the read's
				// completion, never ahead of the core's time.
				for i := scan(0); i < len(adj); i = scan(i + 1) {
					nb := adj[i]
					ctx.Lock(ly.lock[nb])
					if nd < dist[nb] {
						dist[nb] = nd
						ctx.Write(ly.data[nb])
						changed = true
					}
					ctx.Unlock(ly.lock[nb])
				}
			}
		})
	}
	return run, func() error {
		// Triangle inequality at fixpoint: no edge can relax further.
		for v := 0; v < g.N; v++ {
			if dist[v] >= inf {
				continue
			}
			for _, nb := range g.Adj[v] {
				if dist[v]+edgeWeight(int32(v), nb) < dist[nb] {
					return fmt.Errorf("sssp: edge (%d,%d) still relaxable", v, nb)
				}
			}
		}
		if dist[src] != 0 {
			return fmt.Errorf("sssp: source distance %d", dist[src])
		}
		return nil
	}
}

// ---- PageRank (push) ----

func pr(ly *layout) (body, func() error) {
	g := ly.g
	iters := 3
	rank := make([]float64, g.N)
	next := make([]float64, g.N)
	for v := range rank {
		rank[v] = 1.0 / float64(g.N)
	}
	rd := &roundDriver{ly: ly, maxIters: iters + 1,
		prep: func(round int) bool {
			rank, next = next, rank
			return round+1 < iters
		}}
	run := func(ctx *program.Ctx, mine []int) {
		rd.run(ctx, func(round int) {
			// CRONO-style iteration: gather neighbor ranks (reads on the
			// shared read-write output array), then update the own vertex's
			// entry under its fine-grained lock.
			for _, v := range mine {
				ly.readAdj(ctx, v)
				ctx.Compute(vertexInstrs)
				sum := 0.0
				for _, nb := range g.Adj[v] {
					ctx.Compute(edgeInstrs)
					// Data only: rank is last round's array, swapped only
					// between barriers, so no core writes it this round.
					ctx.ReadSettled(ly.data[nb], always)
					if d := g.Degree(int(nb)); d > 0 {
						sum += rank[nb] / float64(d)
					}
				}
				ctx.Lock(ly.lock[v])
				next[v] = 0.15/float64(g.N) + 0.85*sum
				ctx.Write(ly.data[v])
				ctx.Unlock(ly.lock[v])
			}
		})
	}
	return run, func() error {
		var sum float64
		for _, r := range rank {
			if r < 0 {
				return fmt.Errorf("pr: negative rank %g", r)
			}
			sum += r
		}
		if sum < 0.5 || sum > 1.5 {
			return fmt.Errorf("pr: rank mass %g implausible", sum)
		}
		return nil
	}
}

// ---- Teenage Followers (locks only, no barriers) ----

func tf(ly *layout) (body, func() error) {
	g := ly.g
	age := func(v int) int { return int(uint64(v)*0x9e3779b9>>7) % 40 }
	count := make([]int32, g.N)
	// Count each vertex's teenage followers by scanning its neighborhood,
	// then update the shared counter under the vertex's lock (lock-only app:
	// no barriers, Table 6).
	run := func(ctx *program.Ctx, mine []int) {
		for _, v := range mine {
			ly.readAdj(ctx, v)
			ctx.Compute(vertexInstrs)
			teen := int32(0)
			for _, nb := range g.Adj[v] {
				ctx.Compute(edgeInstrs)
				// Data only: age is pure, so the read's outcome is settled.
				ctx.ReadSettled(ly.data[nb], always)
				if age(int(nb)) < 20 {
					teen++
				}
			}
			if teen > 0 {
				ctx.Lock(ly.lock[v])
				count[v] += teen
				ctx.Write(ly.data[v])
				ctx.Unlock(ly.lock[v])
			}
		}
	}
	return run, func() error {
		for v := 0; v < g.N; v++ {
			want := int32(0)
			for _, nb := range g.Adj[v] {
				if age(int(nb)) < 20 {
					want++
				}
			}
			if count[v] != want {
				return fmt.Errorf("tf: count[%d] = %d, want %d", v, count[v], want)
			}
		}
		return nil
	}
}

// ---- Triangle Counting ----

func tc(ly *layout) (body, func() error) {
	g := ly.g
	count := make([]int64, g.N)
	run := func(ctx *program.Ctx, mine []int) {
		for _, v := range mine {
			ly.readAdj(ctx, v)
			ctx.Compute(vertexInstrs)
			tri := int64(0)
			for _, nb := range g.Adj[v] {
				if int(nb) <= v {
					continue
				}
				// Intersect adjacency lists; reads charged on the neighbor's
				// (possibly remote) list.
				ly.readAdj(ctx, int(nb))
				ctx.Compute(int64(min(len(g.Adj[v]), len(g.Adj[nb]))) * 2)
				tri += intersect(g.Adj[v], g.Adj[nb])
			}
			if tri > 0 {
				ctx.Lock(ly.lock[v])
				ctx.Read(ly.data[v])
				count[v] += tri
				ctx.Write(ly.data[v])
				ctx.Unlock(ly.lock[v])
			}
		}
		ctx.BarrierAcrossUnits(ly.barrier, ly.cores)
	}
	return run, func() error {
		for v, c := range count {
			if c < 0 {
				return fmt.Errorf("tc: negative count at %d", v)
			}
		}
		return nil
	}
}

// intersect counts common neighbors (both lists unsorted; use a map).
func intersect(a, b []int32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[int32]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var n int64
	for _, y := range b {
		if set[y] {
			n++
		}
	}
	return n
}
