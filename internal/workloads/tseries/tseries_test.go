package tseries_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
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

// seriesFingerprints pins every dataset's values at two scales: FNV-64 over
// the window, the length and each value's IEEE-754 bits.
var seriesFingerprints = map[string]uint64{
	"air@0.1": 0x8dcdfad7ddb61565,
	"pow@0.1": 0xa3dfd00ebf2453b7,
	"air@1":   0xcd1b63b3555fff95,
	"pow@1":   0xccef20ea2bc5a99e,
}

func TestLoadFingerprint(t *testing.T) {
	for _, scale := range []float64{0.1, 1} {
		for _, name := range tseries.Inputs() {
			key := fmt.Sprintf("%s@%g", name, scale)
			s := tseries.Load(name, scale)
			h := fnv.New64a()
			var buf [8]byte
			put := func(x uint64) {
				binary.LittleEndian.PutUint64(buf[:], x)
				h.Write(buf[:])
			}
			put(uint64(s.Window))
			put(uint64(len(s.Values)))
			for _, v := range s.Values {
				put(math.Float64bits(v))
			}
			if got, want := h.Sum64(), seriesFingerprints[key]; got != want {
				t.Errorf("%s: series digest %#x, want %#x", key, got, want)
			}
		}
	}
}
