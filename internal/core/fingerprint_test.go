package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"syncron/internal/arch"
	"syncron/internal/core"
	"syncron/internal/program"
)

// fingerprintRounds is how many rounds each fingerprint program runs.
const fingerprintRounds = 6

// fingerprintProgram installs one sync-op workload on r and returns the
// fetch-add variables whose accumulated value the fingerprint records.
type fingerprintProgram func(m *arch.Machine, r *program.Runner) (rmw []uint64)

// fingerprintPrograms exercise each protocol path on a 2-unit, 8-core
// machine, with variables homed in both units so that a 1-entry ST
// overflows.
var fingerprintPrograms = []struct {
	name string
	prog fingerprintProgram
}{
	{"lock", func(m *arch.Machine, r *program.Runner) []uint64 {
		locks := []uint64{m.Alloc(0, 8), m.Alloc(1, 8), m.Alloc(1, 8)}
		r.AddN(m.NumCores(), func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < fingerprintRounds; k++ {
					a := locks[(i+k)%len(locks)]
					if k%2 == 0 {
						ctx.Lock(a)
						ctx.Compute(int64(10 + i))
						ctx.Unlock(a)
					} else {
						// Nested: hold two locks, taken in address order.
						lo, hi := a, locks[(i+k+1)%len(locks)]
						if lo > hi {
							lo, hi = hi, lo
						}
						ctx.Lock(lo)
						ctx.Lock(hi)
						ctx.Compute(15)
						ctx.Unlock(hi)
						ctx.Unlock(lo)
					}
					ctx.Compute(int64(20 * (i%3 + 1)))
				}
			}
		})
		return nil
	}},
	{"barrier_within", func(m *arch.Machine, r *program.Runner) []uint64 {
		// Two 2-core groups per unit, each on its own barrier, homed in
		// either unit.
		per := m.Cfg.CoresPerUnit
		var bars [2][2]uint64
		for u := range bars {
			for g := range bars[u] {
				bars[u][g] = m.Alloc((u+g)%2, 8)
			}
		}
		r.AddN(m.NumCores(), func(i int) program.Program {
			bar := bars[i/per][(i%per)/2]
			return func(ctx *program.Ctx) {
				for k := 0; k < fingerprintRounds; k++ {
					ctx.Compute(int64(7 * (i + k + 1)))
					ctx.BarrierWithinUnit(bar, 2)
				}
			}
		})
		return nil
	}},
	{"barrier_across", func(m *arch.Machine, r *program.Runner) []uint64 {
		// A barrier of all cores (two-level) and one of a 5-core subset
		// (one-level redirect).
		all, subset := m.Alloc(1, 8), m.Alloc(0, 8)
		n := m.NumCores()
		r.AddN(n, func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < fingerprintRounds; k++ {
					ctx.Compute(int64(10 * (i + 1)))
					ctx.BarrierAcrossUnits(all, n)
					if i < 5 {
						ctx.Compute(int64(3 * (k + 1)))
						ctx.BarrierAcrossUnits(subset, 5)
					}
				}
			}
		})
		return nil
	}},
	{"semaphore", func(m *arch.Machine, r *program.Runner) []uint64 {
		sems := []uint64{m.Alloc(0, 8), m.Alloc(1, 8)}
		r.AddN(m.NumCores(), func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < fingerprintRounds; k++ {
					s := sems[(i+k)%len(sems)]
					ctx.SemWait(s, 2)
					ctx.Compute(int64(30 + 5*i))
					ctx.SemPost(s)
					ctx.Compute(20)
				}
			}
		})
		return nil
	}},
	{"condvar", func(m *arch.Machine, r *program.Runner) []uint64 {
		// Two (cond, lock) pairs, one homed in each unit. Even cores consume,
		// odd cores produce one item per round; producers alternate signal
		// and broadcast.
		conds := []uint64{m.Alloc(0, 8), m.Alloc(1, 8)}
		locks := []uint64{m.Alloc(0, 8), m.Alloc(1, 8)}
		items := make([]int, len(conds))
		r.AddN(m.NumCores(), func(i int) program.Program {
			p := (i / 2) % 2
			cond, lock := conds[p], locks[p]
			return func(ctx *program.Ctx) {
				for k := 0; k < fingerprintRounds; k++ {
					if i%2 == 0 {
						ctx.Lock(lock)
						for items[p] == 0 {
							ctx.CondWait(cond, lock)
						}
						items[p]--
						ctx.Unlock(lock)
						ctx.Compute(int64(10 * (k + 1)))
						continue
					}
					ctx.Compute(int64(40 * (i + k)))
					ctx.Lock(lock)
					items[p]++
					if k%2 == 0 {
						ctx.CondSignal(cond, lock)
					} else {
						ctx.CondBroadcast(cond, lock)
					}
					ctx.Unlock(lock)
				}
			}
		})
		return nil
	}},
	{"fetch_add", func(m *arch.Machine, r *program.Runner) []uint64 {
		vars := []uint64{m.Alloc(0, 8), m.Alloc(1, 8)}
		r.AddN(m.NumCores(), func(i int) program.Program {
			return func(ctx *program.Ctx) {
				for k := 0; k < fingerprintRounds; k++ {
					ctx.FetchAdd(vars[(i+k)%len(vars)], uint64(i+1))
					ctx.Compute(int64(15 + i))
				}
			}
		})
		return vars
	}},
}

// fingerprintSchemes are the four message-passing schemes the Coordinator
// implements; SynCron also runs under each overflow policy.
var fingerprintSchemes = []struct {
	name     string
	opt      core.Options
	policies []core.OverflowPolicy
}{
	{"syncron", core.Options{Topology: core.TopoHier, HardwareSE: true},
		[]core.OverflowPolicy{core.OverflowIntegrated, core.OverflowCentral, core.OverflowDistrib}},
	{"syncron-flat", core.Options{Topology: core.TopoFlat, HardwareSE: true},
		[]core.OverflowPolicy{core.OverflowIntegrated}},
	{"central", core.Options{Topology: core.TopoCentral},
		[]core.OverflowPolicy{core.OverflowIntegrated}},
	{"hier", core.Options{Topology: core.TopoHier},
		[]core.OverflowPolicy{core.OverflowIntegrated}},
}

var policyNames = map[core.OverflowPolicy]string{
	core.OverflowIntegrated: "integrated",
	core.OverflowCentral:    "central-ovrfl",
	core.OverflowDistrib:    "distrib-ovrfl",
}

// protocolFingerprint runs every scheme × ST size × overflow policy ×
// program and returns one line of timing and accounting results per run.
func protocolFingerprint() string {
	var b strings.Builder
	for _, s := range fingerprintSchemes {
		for _, st := range []int{64, 1} {
			for _, pol := range s.policies {
				for _, p := range fingerprintPrograms {
					opt := s.opt
					opt.STEntries, opt.Overflow = st, pol
					c := core.NewCoordinator(opt)
					cfg := arch.Default()
					cfg.Units, cfg.CoresPerUnit = 2, 4
					m := arch.NewMachine(cfg)
					m.Backend = c
					r := program.NewRunner(m)
					rmw := p.prog(m, r)
					makespan := r.Run()
					fmt.Fprintf(&b, "%s st=%d %s %s: makespan=%d finish=[", s.name, st, policyNames[pol], p.name, makespan)
					for i, cs := range r.Stats() {
						if i > 0 {
							b.WriteByte(' ')
						}
						fmt.Fprint(&b, int64(cs.Finish))
					}
					intra, inter := m.DataMovement()
					e := m.EnergyBreakdown()
					stMax, stMean := c.STOccupancy()
					fmt.Fprintf(&b, "] events=%d bytes=%d/%d energy=%v/%v/%v overflowed=%v st=%v/%v aborts=%d",
						m.Engine.Executed, intra, inter, e.CachePJ, e.NetworkPJ, e.MemoryPJ,
						c.OverflowedFraction(), stMax, stMean, c.AbortsSent())
					for _, v := range rmw {
						fmt.Fprintf(&b, " rmw=%d", c.RMWValue(v))
					}
					b.WriteByte('\n')
				}
			}
		}
	}
	return b.String()
}

const fingerprintPath = "testdata/protocol-fingerprint.golden"

// TestProtocolFingerprint pins the simulated outcome of every protocol path
// (each sync op under each message-passing scheme, with and without ST
// overflow, under every overflow policy) to a committed golden. A protocol
// refactor must leave it byte-identical; regenerate with UPDATE_GOLDEN=1
// only for a deliberate, documented model change.
func TestProtocolFingerprint(t *testing.T) {
	got := protocolFingerprint()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(fingerprintPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden updated")
		return
	}
	want, err := os.ReadFile(fingerprintPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("protocol fingerprint deviates from %s at line %d:\n got: %s\nwant: %s",
					fingerprintPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("protocol fingerprint deviates from %s: %d lines, want %d", fingerprintPath, len(gl), len(wl))
	}
}
