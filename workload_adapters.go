package syncron

import (
	"syncron/internal/arch"
	"syncron/internal/program"
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
		RegisterWorkload(builtin{string(prim), KindPrimitive, string(prim), primitive(prim)})
	}
	for _, name := range ds.Names() {
		RegisterWorkload(builtin{name, KindDataStructure, name, dataStructure(name)})
	}
	for _, app := range graphs.Apps() {
		for _, input := range graphs.Inputs() {
			RegisterWorkload(builtin{app + "." + input, KindGraph, app, graphApp(app, input)})
		}
	}
	for _, input := range tseries.Inputs() {
		RegisterWorkload(builtin{"ts." + input, KindTimeSeries, "ts", timeSeries(input)})
	}
}

// issuesSemCond reports whether the registered workload name issues
// semaphore or condition-variable ops: of the built-in workloads, only the
// semaphore and condvar primitives do.
func issuesSemCond(name string) bool {
	return name == string(ubench.Semaphore) || name == string(ubench.CondVar)
}

// builtin is one workload of the paper's evaluation.
type builtin struct {
	name    string
	kind    WorkloadKind
	family  string
	prepare prepareFunc
}

// prepareFunc places a workload's data on m, registers one program per core
// on r, and reports the run's operation count and functional check.
type prepareFunc func(m *arch.Machine, r *program.Runner, p WorkloadParams) *PreparedRun

func (w builtin) Name() string       { return w.name }
func (w builtin) Kind() WorkloadKind { return w.kind }
func (w builtin) Family() string     { return w.family }

func (w builtin) Prepare(sys *System, p WorkloadParams) (*PreparedRun, error) {
	return w.prepare(sys.m, sys.r, p), nil
}

// primitive is a Figure-10 microbenchmark: every core repeatedly reaches a
// single synchronization variable.
func primitive(prim ubench.Primitive) prepareFunc {
	return func(m *arch.Machine, r *program.Runner, p WorkloadParams) *PreparedRun {
		interval := p.Interval
		if interval == 0 {
			interval = 200
		}
		rounds := p.Rounds
		if rounds == 0 {
			rounds = int(100*p.scale()) + 10
		}
		ubench.Build(m, r, ubench.Config{Primitive: prim, Interval: interval, Rounds: rounds})
		return &PreparedRun{Ops: uint64(rounds * m.NumCores())}
	}
}

// dataStructure is a Table-6 pointer-chasing concurrent data structure; each
// core performs the structure's operation mix.
func dataStructure(name string) prepareFunc {
	return func(m *arch.Machine, r *program.Runner, p WorkloadParams) *PreparedRun {
		size := p.Size
		if size == 0 {
			size = max(int(float64(ds.PaperSize(name))*p.scale()/40), 32)
			if name == "arraymap" {
				size = 10
			}
		}
		ops := p.OpsPerCore
		if ops == 0 {
			ops = 40
		}
		check := ds.Build(m, r, name, size, ops)
		return &PreparedRun{Ops: uint64(ops * m.NumCores()), Check: check}
	}
}

// graphApp is one graph application on one input (e.g. "pr.wk").
func graphApp(app, input string) prepareFunc {
	return func(m *arch.Machine, r *program.Runner, p WorkloadParams) *PreparedRun {
		g := graphs.Load(input, p.scale())
		partition := graphs.HashPartition
		if p.Metis {
			partition = graphs.GreedyPartition
		}
		check := graphs.Build(m, r, app, g, partition(g, m.Cfg.Units))
		return &PreparedRun{Ops: uint64(g.M), Check: check}
	}
}

// timeSeries is the time-series analysis workload on one input (e.g.
// "ts.air").
func timeSeries(input string) prepareFunc {
	return func(m *arch.Machine, r *program.Runner, p WorkloadParams) *PreparedRun {
		s := tseries.Load(input, p.scale())
		return &PreparedRun{Ops: uint64(s.Profiles()), Check: tseries.Build(m, r, s)}
	}
}
