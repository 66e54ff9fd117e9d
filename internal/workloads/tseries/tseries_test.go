package tseries_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/core"
	"syncron/internal/program"
	"syncron/internal/workloads/tseries"
)

func TestMatrixProfileAllSchemes(t *testing.T) {
	backends := map[string]func() arch.Backend{
		"syncron": func() arch.Backend { return core.NewSynCron() },
		"ideal":   func() arch.Backend { return baselines.NewIdeal() },
		"hier":    func() arch.Backend { return baselines.NewHier() },
	}
	for _, input := range tseries.Inputs() {
		for bname, mk := range backends {
			input, bname, mk := input, bname, mk
			t.Run(input+"/"+bname, func(t *testing.T) {
				cfg := arch.Config{}
				cfg.Units = 2
				cfg.CoresPerUnit = 4
				m := arch.NewMachine(cfg)
				m.Backend = mk()
				s := tseries.Load(input, 0.15)
				r := program.NewRunner(m)
				check := tseries.Build(m, r, s)
				r.Run()
				if err := check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestSeriesDeterminism(t *testing.T) {
	a := tseries.Load("air", 0.2)
	b := tseries.Load("air", 0.2)
	if len(a.Values) != len(b.Values) {
		t.Fatal("non-deterministic series length")
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("non-deterministic value at %d", i)
		}
	}
}
