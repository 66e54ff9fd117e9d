package ds_test

import (
	"testing"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/core"
	"syncron/internal/program"
	"syncron/internal/workloads/ds"
)

// smallSize keeps tests fast while exercising every code path.
func smallSize(name string) int {
	switch name {
	case "arraymap":
		return 10
	case "linkedlist", "bst_fg":
		return 64
	default:
		return 128
	}
}

// runDS runs opsPerCore operations per core of the named structure on a
// 2x4 machine and returns the structure's functional check.
func runDS(t *testing.T, name string, mkBackend func() arch.Backend, opsPerCore int) func() error {
	t.Helper()
	cfg := arch.Default()
	cfg.Units = 2
	cfg.CoresPerUnit = 4
	m := arch.NewMachine(cfg)
	m.Backend = mkBackend()
	r := program.NewRunner(m)
	check := ds.Build(m, r, name, smallSize(name), opsPerCore)
	r.Run()
	return check
}

func TestAllStructuresAllSchemes(t *testing.T) {
	backends := map[string]func() arch.Backend{
		"syncron": func() arch.Backend { return core.NewSynCron() },
		"ideal":   func() arch.Backend { return baselines.NewIdeal() },
		"central": func() arch.Backend { return baselines.NewCentral() },
		"hier":    func() arch.Backend { return baselines.NewHier() },
	}
	for _, name := range ds.Names() {
		for bname, mk := range backends {
			name, bname, mk := name, bname, mk
			t.Run(name+"/"+bname, func(t *testing.T) {
				if err := runDS(t, name, mk, 10)(); err != nil {
					t.Fatalf("%s on %s: %v", name, bname, err)
				}
			})
		}
	}
}

func TestPaperSizesKnown(t *testing.T) {
	for _, name := range ds.Names() {
		if ds.PaperSize(name) <= 0 {
			t.Errorf("no paper size for %s", name)
		}
	}
}

func TestStackOverflowWithTinyST(t *testing.T) {
	// The hand-over-hand structures must overflow a tiny ST and still pass
	// their functional checks.
	for _, name := range []string{"linkedlist", "bst_fg"} {
		name := name
		t.Run(name, func(t *testing.T) {
			mk := func() arch.Backend {
				return core.NewCoordinator(core.Options{Topology: core.TopoHier, HardwareSE: true, STEntries: 4})
			}
			if err := runDS(t, name, mk, 8)(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
