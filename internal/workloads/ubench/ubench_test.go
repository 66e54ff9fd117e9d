package ubench_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/core"
	"syncron/internal/program"
	"syncron/internal/sim"
	"syncron/internal/workloads/ubench"
)

// makespan builds the microbenchmark on m and returns the makespan.
func makespan(m *arch.Machine, cfg ubench.Config) sim.Time {
	r := program.NewRunner(m)
	ubench.Build(m, r, cfg)
	return r.Run()
}

func TestAllPrimitivesComplete(t *testing.T) {
	backends := map[string]func() arch.Backend{
		"syncron": func() arch.Backend { return core.NewSynCron() },
		"central": func() arch.Backend { return baselines.NewCentral() },
		"hier":    func() arch.Backend { return baselines.NewHier() },
		"ideal":   func() arch.Backend { return baselines.NewIdeal() },
	}
	for _, prim := range ubench.Primitives() {
		for bname, mk := range backends {
			prim, bname, mk := prim, bname, mk
			t.Run(string(prim)+"/"+bname, func(t *testing.T) {
				cfg := arch.Config{}
				cfg.Units = 2
				cfg.CoresPerUnit = 4
				m := arch.NewMachine(cfg)
				m.Backend = mk()
				end := makespan(m, ubench.Config{Primitive: prim, Interval: 100, Rounds: 10})
				if end <= 0 {
					t.Fatalf("%s on %s made no progress", prim, bname)
				}
			})
		}
	}
}

func TestIntervalScalesMakespan(t *testing.T) {
	run := func(interval int64) sim.Time {
		cfg := arch.Config{}
		cfg.Units = 2
		cfg.CoresPerUnit = 4
		m := arch.NewMachine(cfg)
		m.Backend = baselines.NewIdeal()
		return makespan(m, ubench.Config{Primitive: ubench.Lock, Interval: interval, Rounds: 20})
	}
	if run(2000) <= run(100) {
		t.Fatal("larger interval should produce larger makespan under Ideal")
	}
}

func TestSynCronBeatsCentralAtSmallInterval(t *testing.T) {
	run := func(b arch.Backend) sim.Time {
		cfg := arch.Config{}
		m := arch.NewMachine(cfg)
		m.Backend = b
		return makespan(m, ubench.Config{Primitive: ubench.Barrier, Interval: 50, Rounds: 10})
	}
	central := run(baselines.NewCentral())
	syncron := run(core.NewSynCron())
	if syncron >= central {
		t.Fatalf("syncron (%v) not faster than central (%v) on tight barriers", syncron, central)
	}
}
