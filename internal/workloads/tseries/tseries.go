// Package tseries implements the paper's time-series analysis workload:
// matrix-profile computation with SCRIMP on the Matrix Profile datasets (air
// quality, power consumption). The input series is replicated in each NDP
// unit (shared read-only, cacheable); the output profile is a read-write
// array partitioned across units, protected by fine-grained locks; cores
// process anti-diagonals of the distance matrix and synchronize with
// barriers. The real datasets are not shipped; deterministic synthetic
// random-walk series of the same window lengths replace them, because
// SCRIMP's synchronization pattern depends on the series length and window,
// not on the data values.
package tseries

import (
	"fmt"
	"math"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// Inputs lists the two Table-6 datasets.
func Inputs() []string { return []string{"air", "pow"} }

// Series is one input dataset.
type Series struct {
	Name   string
	Values []float64
	Window int
}

// Load synthesizes the named dataset at the given scale.
func Load(name string, scale float64) *Series {
	var n, w int
	var seed uint64
	switch name {
	case "air":
		n, w, seed = 1200, 24, 7
	case "pow":
		n, w, seed = 1600, 32, 9
	default:
		panic(fmt.Sprintf("tseries: unknown dataset %q", name))
	}
	n = int(float64(n) * scale)
	if n < 8*w {
		n = 8 * w
	}
	rng := sim.NewRNG(seed)
	vals := make([]float64, n)
	v := 0.0
	for i := range vals {
		v += rng.Float64() - 0.5
		vals[i] = v
	}
	return &Series{Name: name, Values: vals, Window: w}
}

// Profiles returns the number of subsequences (profile length).
func (s *Series) Profiles() int { return len(s.Values) - s.Window + 1 }

// dist is the (un-normalized) squared Euclidean distance between the
// subsequences starting at i and j; SCRIMP-style incremental update is
// modelled by the per-step compute cost in the simulated kernel.
func (s *Series) dist(i, j int) float64 {
	var d float64
	for k := 0; k < s.Window; k++ {
		x := s.Values[i+k] - s.Values[j+k]
		d += x * x
	}
	return d
}

// workload is one placed matrix-profile computation.
type workload struct {
	s       *Series
	profile []float64

	inBase   []uint64 // replicated input, per unit
	outData  []uint64 // profile lines (8 entries per line)
	outLock  []uint64
	barrier  uint64
	exclZone int
}

// Build places the matrix-profile computation of s on machine m and registers
// the SCRIMP programs on r: diagonals are distributed round-robin across
// cores; each diagonal element costs an incremental dot-product update (O(1)
// compute) plus two profile updates (row and column). It returns the check of
// the computed profile against a host-side reference.
func Build(m *arch.Machine, r *program.Runner, s *Series) func() error {
	w := &workload{s: s, exclZone: s.Window / 4}
	np := s.Profiles()
	w.profile = make([]float64, np)
	for i := range w.profile {
		w.profile[i] = math.Inf(1)
	}
	// Input replicated per unit (read-only).
	for u := 0; u < m.Cfg.Units; u++ {
		w.inBase = append(w.inBase, m.Alloc(u, uint64(len(s.Values)*8)))
	}
	// Output partitioned across units, one lock per line of 8 entries.
	lines := (np + 7) / 8
	per := (lines + m.Cfg.Units - 1) / m.Cfg.Units
	for l := 0; l < lines; l++ {
		u := l / per % m.Cfg.Units
		w.outData = append(w.outData, m.AllocShared(u, 64))
		w.outLock = append(w.outLock, m.Alloc(u, 64))
	}
	w.barrier = m.Alloc(0, 64)

	n := m.NumCores()
	r.AddN(n, func(core int) program.Program {
		return func(ctx *program.Ctx) {
			unit := m.UnitOf(ctx.ID)
			for d := w.exclZone + 1 + core; d < np; d += n {
				// First element of the diagonal: full dot product.
				ctx.Read(w.inBase[unit])
				ctx.Compute(int64(w.s.Window))
				for i := 0; i+d < np; i++ {
					// Incremental SCRIMP update: O(1) flops + input reads
					// from the local replica.
					ctx.Read(w.inBase[unit] + uint64((i%len(w.s.Values))*8/64*64))
					ctx.Compute(16)
					dist := w.s.dist(i, i+d)
					w.update(ctx, i, dist)
					w.update(ctx, i+d, dist)
				}
			}
			ctx.BarrierAcrossUnits(w.barrier, n)
		}
	})
	return w.check
}

// update folds distance d into profile[i]: an unlocked read checks whether d
// improves the current minimum; only improvements take the line lock (the
// standard SCRIMP update pattern — still lock-heavy early on, when the
// profile is all +Inf and most comparisons improve it).
func (w *workload) update(ctx *program.Ctx, i int, d float64) {
	line := i / 8
	ctx.Read(w.outData[line])
	if d >= w.profile[i] {
		return
	}
	ctx.Lock(w.outLock[line])
	if d < w.profile[i] { // recheck under the lock
		w.profile[i] = d
		ctx.Write(w.outData[line])
	}
	ctx.Unlock(w.outLock[line])
}

// check validates the computed profile against a host-side reference.
func (w *workload) check() error {
	np := w.s.Profiles()
	for i := 0; i < np; i++ {
		want := math.Inf(1)
		for j := 0; j < np; j++ {
			dd := j - i
			if dd < 0 {
				dd = -dd
			}
			if dd <= w.exclZone {
				continue
			}
			if d := w.s.dist(i, j); d < want {
				want = d
			}
		}
		if math.Abs(want-w.profile[i]) > 1e-9 {
			return fmt.Errorf("ts: profile[%d] = %g, want %g", i, w.profile[i], want)
		}
	}
	return nil
}
