package graphs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"syncron"
	"syncron/internal/workloads/graphs"
)

// cc's and sssp's neighbor loops run their unlocked checks through
// ScanReads, which moves only where the checks run on the host. On every
// graph input, under central, syncron and ideal at 1 and 4 units, each run's
// RunResult JSON and trace CSV must equal those of the reference kernels,
// which check in the program's own code after Read.
func TestScanKernelsMatchReadKernels(t *testing.T) {
	run := func(spec syncron.RunSpec) (res, tr []byte) {
		col := syncron.NewTraceCollector()
		spec.Config.Tracer = col
		r := syncron.Execute(spec)
		if r.Err != "" {
			t.Fatalf("%s: %s", spec.Workload, r.Err)
		}
		res, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := col.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes()
	}
	for _, app := range []string{"cc", "sssp"} {
		for _, input := range graphs.Inputs() {
			for _, scheme := range []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeSynCron, syncron.SchemeIdeal} {
				for _, units := range []int{1, 4} {
					spec := syncron.RunSpec{Workload: app + "." + input,
						Config: syncron.Config{Scheme: scheme, Units: units, Seed: 1},
						Params: syncron.WorkloadParams{Scale: 0.05}}
					name := fmt.Sprintf("%s/%s/%d", spec.Workload, scheme, units)
					gotRes, gotTrace := run(spec)
					restore := graphs.UseReadKernels()
					wantRes, wantTrace := run(spec)
					restore()
					if !bytes.Equal(gotRes, wantRes) {
						t.Errorf("%s: RunResult\n%s\nreference kernel\n%s", name, gotRes, wantRes)
					}
					if !bytes.Contains(wantTrace, []byte("lock_hold")) || !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("%s: trace CSVs differ or hold no lock span: %d vs %d bytes",
							name, len(gotTrace), len(wantTrace))
					}
				}
			}
		}
	}
}
