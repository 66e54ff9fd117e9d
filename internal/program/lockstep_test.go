package program_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"testing"

	"syncron"
	"syncron/internal/program"
	"syncron/internal/trace"
)

// The lockstep oracle for the host-order contract. Running ahead past settled
// reads, scanned reads and RunAhead's sync ops moves only the host time at
// which program code runs, never the simulation. So
// every registered workload, under every scheme that models it, at 1 and 4
// units, must give byte-identical RunResult JSON and trace with and without
// lockstep. The trace is compared record by record in emission order, which
// also pins the order of the engine events that emit them. A program that
// reads shared host state before catching up with its core shows here as a
// differing run.
func TestLockstepOracle(t *testing.T) {
	seed := maphash.MakeSeed()
	run := func(spec syncron.RunSpec, lockstep bool) (res []byte, tr *traceHash) {
		if lockstep {
			defer program.UseLockstep()()
		}
		tr = &traceHash{}
		tr.h.SetSeed(seed)
		spec.Config.Tracer = tr
		r := syncron.Execute(spec)
		if r.Err != "" {
			t.Fatalf("%s/%s/%d: %s", spec.Workload, spec.Config.Scheme, spec.Config.Units, r.Err)
		}
		res, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	for _, w := range syncron.WorkloadNames() {
		runs := 0
		for _, scheme := range syncron.Schemes() {
			for _, units := range []int{1, 4} {
				spec := syncron.RunSpec{Workload: w,
					Config: syncron.Config{Scheme: scheme, Units: units, CoresPerUnit: 8 / units, Seed: 5},
					Params: syncron.WorkloadParams{Scale: 0.02}}
				if spec.Validate() != nil {
					continue // a coherence-lock scheme on a semaphore or condvar
				}
				name := fmt.Sprintf("%s/%s/%d", w, scheme, units)
				gotRes, gotTrace := run(spec, false)
				wantRes, wantTrace := run(spec, true)
				if !bytes.Equal(gotRes, wantRes) {
					t.Errorf("%s: RunResult\n%s\nin lockstep\n%s", name, gotRes, wantRes)
				}
				if gotTrace.rows == 0 || gotTrace.h.Sum64() != wantTrace.h.Sum64() {
					t.Errorf("%s: traces differ or are empty: %d rows vs %d in lockstep",
						name, gotTrace.rows, wantTrace.rows)
				}
				runs++
			}
		}
		// Every workload runs under central, hier, syncron, syncron-flat and
		// ideal at least.
		if runs < 2*5 {
			t.Errorf("%s: compared %d runs, want at least 10", w, runs)
		}
	}
}

// traceHash is a tracer that hashes each record's fields, which its CSV row
// encodes one to one, as the record is emitted.
type traceHash struct {
	h    maphash.Hash
	rows int
}

func (t *traceHash) Emit(r trace.Record) {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(r.Start))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.End))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.Value))
	t.h.Write(b[:])
	for _, s := range [...]string{r.Where, r.What, r.Unit} {
		t.h.WriteString(s)
		t.h.WriteByte(0)
	}
	t.rows++
}
