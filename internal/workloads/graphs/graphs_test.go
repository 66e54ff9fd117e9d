package graphs_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/core"
	"syncron/internal/program"
	"syncron/internal/workloads/graphs"
)

func TestGeneratorShape(t *testing.T) {
	for _, name := range graphs.Inputs() {
		g := graphs.Load(name, 0.1)
		if g.N < 16 {
			t.Fatalf("%s: too few vertices %d", name, g.N)
		}
		// Degree sum must equal 2M.
		sum := 0
		maxDeg := 0
		for v := 0; v < g.N; v++ {
			sum += g.Degree(v)
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
		}
		if sum != 2*g.M {
			t.Fatalf("%s: degree sum %d != 2M %d", name, sum, 2*g.M)
		}
		// Power-law-ish: the hub should far exceed the average degree.
		avg := sum / g.N
		if maxDeg < 3*avg {
			t.Errorf("%s: max degree %d not skewed vs avg %d", name, maxDeg, avg)
		}
	}
}

func TestGreedyPartitionReducesCrossings(t *testing.T) {
	g := graphs.Load("wk", 0.2)
	hash := graphs.HashPartition(g, 4)
	greedy := graphs.GreedyPartition(g, 4)
	ch := graphs.CrossingEdges(g, hash)
	cg := graphs.CrossingEdges(g, greedy)
	if cg >= ch {
		t.Errorf("greedy crossings %d not below hash crossings %d", cg, ch)
	}
	// Balance: no part may be empty.
	counts := make([]int, 4)
	for _, p := range greedy {
		counts[p]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("greedy part %d empty", i)
		}
	}
}

// Beyond 16 units every part must stay a valid unit index and within the
// balance limit (the neighbor tally once had a fixed 16-part capacity).
func TestGreedyPartitionManyUnits(t *testing.T) {
	g := graphs.Load("wk", 0.1)
	for _, units := range []int{17, 32} {
		p := graphs.GreedyPartition(g, units)
		limit := (g.N+units-1)/units + g.N/(units*10) + 1
		counts := make([]int, units)
		for v, u := range p {
			if u < 0 || u >= units {
				t.Fatalf("%d units: vertex %d in part %d", units, v, u)
			}
			counts[u]++
		}
		for u, c := range counts {
			if c > limit {
				t.Errorf("%d units: part %d holds %d vertices, limit %d", units, u, c, limit)
			}
		}
	}
}

func runApp(t *testing.T, app string, mk func() arch.Backend) {
	t.Helper()
	cfg := arch.Default()
	cfg.Units = 2
	cfg.CoresPerUnit = 4
	m := arch.NewMachine(cfg)
	m.Backend = mk()
	g := graphs.Load("wk", 0.05)
	r := program.NewRunner(m)
	check := graphs.Build(m, r, app, g, graphs.HashPartition(g, cfg.Units))
	r.Run()
	if err := check(); err != nil {
		t.Fatal(err)
	}
}

func TestAppsAllSchemes(t *testing.T) {
	backends := map[string]func() arch.Backend{
		"syncron": func() arch.Backend { return core.NewSynCron() },
		"ideal":   func() arch.Backend { return baselines.NewIdeal() },
		"central": func() arch.Backend { return baselines.NewCentral() },
		"hier":    func() arch.Backend { return baselines.NewHier() },
	}
	for _, app := range graphs.Apps() {
		for bname, mk := range backends {
			app, bname, mk := app, bname, mk
			t.Run(app+"/"+bname, func(t *testing.T) {
				runApp(t, app, mk)
			})
		}
	}
}
