package tseries

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"syncron/internal/arch"
	"syncron/internal/baselines"
	"syncron/internal/program"
)

// run places s on a 2x2 machine under the ideal scheme, runs it and returns
// the placed workload with its computed profile.
func run(t testing.TB, s *Series) *workload {
	cfg := arch.Config{}
	cfg.Units = 2
	cfg.CoresPerUnit = 2
	m := arch.NewMachine(cfg)
	m.Backend = baselines.NewIdeal()
	r := program.NewRunner(m)
	w := place(m, r, s)
	r.Run()
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	return w
}

// check folds each pair into both ends, which is exact only because dist is
// symmetric bit for bit.
func TestDistSymmetric(t *testing.T) {
	s := Load("air", 0.05)
	for i := 0; i < s.Profiles(); i++ {
		for j := 0; j < s.Profiles(); j++ {
			if a, b := math.Float64bits(s.dist(i, j)), math.Float64bits(s.dist(j, i)); a != b {
				t.Fatalf("dist(%d, %d) bits %#x != dist(%d, %d) bits %#x", i, j, a, j, i, b)
			}
		}
	}
}

// TestCheckRejectsNudgedProfile nudges one entry at a time and expects check
// to name it. The last index is never the first end of a pair outside the
// exclusion zone, so only folding into both ends reaches it.
func TestCheckRejectsNudgedProfile(t *testing.T) {
	w := run(t, Load("air", 0.05))
	np := w.s.Profiles()
	for _, i := range []int{0, np / 2, np - 1} {
		saved := w.profile[i]
		w.profile[i] += 1e-6
		err := w.check()
		w.profile[i] = saved
		if err == nil {
			t.Errorf("profile[%d] nudged by 1e-6: check passed", i)
		} else if want := fmt.Sprintf("profile[%d] ", i); !strings.Contains(err.Error(), want) {
			t.Errorf("profile[%d] nudged: check reported %v", i, err)
		}
	}
	if err := w.check(); err != nil {
		t.Fatalf("restored profile: %v", err)
	}
}

// BenchmarkSeriesDist measures one window distance on the pow series, the
// host kernel that both the simulated SCRIMP programs and check call.
func BenchmarkSeriesDist(b *testing.B) {
	s := Load("pow", 1)
	half := s.Profiles() / 2
	var sink float64
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		sink += s.dist(i, i+half)
		if i++; i == half {
			i = 0
		}
	}
	_ = sink
}

// BenchmarkProfileCheck measures check of a correct profile of the pow
// series at scale 0.5, the longest input of the figures-quick grid.
func BenchmarkProfileCheck(b *testing.B) {
	w := run(b, Load("pow", 0.5))
	b.ReportAllocs()
	for b.Loop() {
		if err := w.check(); err != nil {
			b.Fatal(err)
		}
	}
}
