package graphs

import (
	"fmt"
	"slices"

	"syncron/internal/program"
)

// CrossingEdges counts edges whose endpoints land in different parts.
func CrossingEdges(g *Graph, p Partition) int {
	cross := 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Adj[u] {
			if u < int(v) && p[u] != p[v] {
				cross++
			}
		}
	}
	return cross
}

// The reference kernels below are cc and sssp with each neighbor written as
// the loop ScanReads models: Compute, Read and the check in the program's
// own code. TestScanKernelsMatchReadKernels runs both and requires every
// output byte to match.

// UseReadKernels swaps cc and sssp for their reference kernels until restore
// is called.
func UseReadKernels() (restore func()) {
	saved := slices.Clone(apps)
	for i, a := range apps {
		switch a.name {
		case "cc":
			apps[i].setup = ccRead
		case "sssp":
			apps[i].setup = ssspRead
		}
	}
	return func() { copy(apps, saved) }
}

// ccRead is cc with its neighbor loop written as Read followed by the
// unlocked check.
func ccRead(ly *layout) (body, func() error) {
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
		rd.run(ctx, func(round int) {
			for _, v := range mine {
				ctx.Read(ly.data[v])
				ly.readAdj(ctx, v)
				ctx.Compute(vertexInstrs)
				for _, nb := range g.Adj[v] {
					ctx.Compute(edgeInstrs)
					ctx.Read(ly.data[nb])
					if label[v] < label[nb] {
						ctx.Lock(ly.lock[nb])
						if label[v] < label[nb] {
							label[nb] = label[v]
							ctx.Write(ly.data[nb])
							changed = true
						}
						ctx.Unlock(ly.lock[nb])
					}
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

// ssspRead is sssp with its neighbor loop written as Read followed by the
// unlocked check.
func ssspRead(ly *layout) (body, func() error) {
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
		rd.run(ctx, func(round int) {
			for _, v := range mine {
				if dist[v] >= inf {
					continue
				}
				ctx.Read(ly.data[v])
				ly.readAdj(ctx, v)
				ctx.Compute(vertexInstrs)
				for _, nb := range g.Adj[v] {
					ctx.Compute(edgeInstrs)
					nd := dist[v] + edgeWeight(int32(v), nb)
					ctx.Read(ly.data[nb])
					if nd < dist[nb] {
						ctx.Lock(ly.lock[nb])
						if nd < dist[nb] {
							dist[nb] = nd
							ctx.Write(ly.data[nb])
							changed = true
						}
						ctx.Unlock(ly.lock[nb])
					}
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
