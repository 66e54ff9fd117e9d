package syncron

import (
	"syncron/internal/program"
	"syncron/internal/sim"
	"syncron/internal/workloads/ds"
	"syncron/internal/workloads/graphs"
	"syncron/internal/workloads/tseries"
	"syncron/internal/workloads/ubench"
)

// This file adapts the internal workload packages to the public Workload
// registry. Every benchmark of the paper's evaluation is reachable by name:
// the four primitive microbenchmarks (Figure 10), the nine pointer-chasing
// data structures (Figure 11), the 24 graph app.input combinations and the
// two ts.input time-series workloads (Figure 12).

func init() {
	for _, prim := range ubench.Primitives() {
		RegisterWorkload(primitiveWorkload{prim})
	}
	for _, name := range ds.Names() {
		RegisterWorkload(dsWorkload{name})
	}
	for _, app := range graphs.Apps() {
		for _, input := range graphs.Inputs() {
			RegisterWorkload(graphWorkload{app: app, input: input})
		}
	}
	for _, input := range tseries.Inputs() {
		RegisterWorkload(tsWorkload{input})
	}
}

// primitiveWorkload wraps a Figure-10 microbenchmark: every core repeatedly
// reaches a single synchronization variable.
type primitiveWorkload struct{ prim ubench.Primitive }

func (w primitiveWorkload) Name() string       { return string(w.prim) }
func (w primitiveWorkload) Kind() WorkloadKind { return KindPrimitive }

func (w primitiveWorkload) Prepare(sys *System, p WorkloadParams) (*PreparedRun, error) {
	interval := p.Interval
	if interval == 0 {
		interval = 200
	}
	rounds := p.Rounds
	if rounds == 0 {
		rounds = int(100*p.scale()) + 10
	}
	m := sys.Machine()
	ubench.Build(m, sys.Runner(), ubench.Config{Primitive: w.prim, Interval: interval, Rounds: rounds})
	// All four primitives run with the split-access event order.
	sys.Runner().SplitAccess = true
	return &PreparedRun{Ops: uint64(rounds * m.NumCores())}, nil
}

// dsWorkload wraps a Table-6 pointer-chasing concurrent data structure; each
// core performs the structure's operation mix.
type dsWorkload struct{ name string }

func (w dsWorkload) Name() string       { return w.name }
func (w dsWorkload) Kind() WorkloadKind { return KindDataStructure }

func (w dsWorkload) Prepare(sys *System, p WorkloadParams) (*PreparedRun, error) {
	size := p.Size
	if size == 0 {
		size = int(float64(ds.PaperSize(w.name)) * p.scale() / 40)
		if size < 32 {
			size = 32
		}
		if w.name == "arraymap" {
			size = 10
		}
	}
	ops := p.OpsPerCore
	if ops == 0 {
		ops = 40
	}
	m := sys.Machine()
	rng := sim.NewRNG(m.Cfg.Seed + 100)
	d := ds.New(w.name, m, ds.Config{Size: size}, rng)
	sys.Runner().SplitAccess = ds.SplitAccess(w.name)
	sys.Runner().AddN(m.NumCores(), func(int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < ops; k++ {
				d.Op(ctx, ctx.RNG)
			}
		}
	})
	return &PreparedRun{Ops: uint64(ops * m.NumCores()), Check: d.Check}, nil
}

// graphWorkload wraps one graph application on one input (e.g. "pr.wk").
type graphWorkload struct{ app, input string }

func (w graphWorkload) Name() string       { return w.app + "." + w.input }
func (w graphWorkload) Kind() WorkloadKind { return KindGraph }
func (w graphWorkload) Family() string     { return w.app }

func (w graphWorkload) Prepare(sys *System, p WorkloadParams) (*PreparedRun, error) {
	m := sys.Machine()
	g := graphs.Load(w.input, p.scale())
	var part graphs.Partition
	if p.Metis {
		part = graphs.GreedyPartition(g, m.Cfg.Units)
	} else {
		part = graphs.HashPartition(g, m.Cfg.Units)
	}
	ly := graphs.NewLayout(m, g, part)
	a := graphs.NewApp(m, ly, graphs.RunConfig{App: w.app, Graph: g, Part: part})
	a.Build(m, sys.Runner())
	return &PreparedRun{Ops: uint64(g.M), Check: a.Check}, nil
}

// tsWorkload wraps the time-series analysis workload on one input
// (e.g. "ts.air").
type tsWorkload struct{ input string }

func (w tsWorkload) Name() string       { return "ts." + w.input }
func (w tsWorkload) Kind() WorkloadKind { return KindTimeSeries }
func (w tsWorkload) Family() string     { return "ts" }

func (w tsWorkload) Prepare(sys *System, p WorkloadParams) (*PreparedRun, error) {
	m := sys.Machine()
	series := tseries.Load(w.input, p.scale())
	wk := tseries.New(m, series)
	wk.Build(m, sys.Runner())
	return &PreparedRun{Ops: uint64(series.Profiles()), Check: wk.Check}, nil
}
