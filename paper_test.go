package syncron_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"syncron"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"table1", "fig2", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "table7", "table8", "ablation-fairness", "ablation-seservice"}
	for _, id := range want {
		if _, ok := syncron.LookupPaperArtifact(id); !ok {
			t.Errorf("paper artifact %s not registered", id)
		}
	}
	arts := syncron.PaperArtifacts()
	if len(arts) != len(want) {
		t.Errorf("registry has %d artifacts, want %d", len(arts), len(want))
	}
	// An artifact rendered by Figures must name a view that exists.
	quick, err := os.ReadFile("goldens/figures-quick.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		if (a.View == "") == (a.Build == nil) {
			t.Errorf("%s: want exactly one of View and Build", a.ID)
		}
		if a.View != "" && !bytes.Contains(quick, []byte("## "+a.View+" — ")) {
			t.Errorf("%s: view %q is not a Figures view", a.ID, a.View)
		}
	}
}

// TestPaperArtifactsGolden pins every number of the paper artifacts at
// scale 0.05: the Markdown `syncron-sim paper -scale 0.05 all` prints must
// match goldens/paper-artifacts.md byte for byte. When simulator output
// changes on purpose, regenerate the golden with
//
//	go run ./cmd/syncron-sim paper -scale 0.05 -md goldens/paper-artifacts.md all
//
// and explain the diff in the change that moves it.
func TestPaperArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper artifact")
	}
	const scale = 0.05
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SynCron paper artifacts\n\nWorkload scale %g. Every run uses seed 1.\n\n", scale)
	for _, a := range syncron.PaperArtifacts() {
		if a.Build == nil {
			continue
		}
		figs, err := a.Build(scale)
		if err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		for _, fig := range figs {
			if fig.ID == "table7" {
				checkCombos26(t, fig)
			}
			if err := fig.WriteMarkdown(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	diffGolden(t, "goldens/paper-artifacts.md", got.String())
}

// checkCombos26 checks Table 7 covers the paper's 26 application-input
// combinations (Figure 12), time series last.
func checkCombos26(t *testing.T, table7 *syncron.Figure) {
	t.Helper()
	if len(table7.Rows) != 26 {
		t.Fatalf("table7 has %d rows, want the 26 combinations of Figure 12", len(table7.Rows))
	}
	if table7.Rows[24][0] != "ts.air" || table7.Rows[25][0] != "ts.pow" {
		t.Fatal("time series combos missing")
	}
}

// paperRun executes one spec with the seed every paper artifact uses.
func paperRun(t *testing.T, workload string, cfg syncron.Config, p syncron.WorkloadParams) syncron.RunResult {
	t.Helper()
	cfg.Seed = 1
	r := syncron.Execute(syncron.RunSpec{Workload: workload, Config: cfg, Params: p})
	if r.Err != "" {
		t.Fatalf("%s under %s: %s", workload, cfg.Scheme, r.Err)
	}
	return r
}

// pinnedLock runs an empty-critical-section lock loop with one thread pinned
// to each listed core, as Table 1 and the fairness ablation do.
func pinnedLock(cfg syncron.Config, pinned []int, rounds int, interval int64) syncron.Report {
	cfg.Seed = 1
	sys := syncron.New(cfg)
	lock := sys.AllocLocal(0, 64)
	for _, c := range pinned {
		sys.SpawnAt(c, func(ctx *syncron.Context) {
			for k := 0; k < rounds; k++ {
				ctx.Lock(lock)
				ctx.Unlock(lock)
				ctx.Compute(interval)
			}
		})
	}
	return sys.Run()
}

// TestShapeFig10 checks the paper's primitive-benchmark ordering at tiny
// scale: Ideal >= SynCron >= Hier >= Central for small intervals.
func TestShapeFig10(t *testing.T) {
	times := map[syncron.Scheme]syncron.Time{}
	for _, scheme := range []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeHier,
		syncron.SchemeSynCron, syncron.SchemeIdeal} {
		times[scheme] = paperRun(t, "lock", syncron.Config{Scheme: scheme, Units: 2, CoresPerUnit: 8},
			syncron.WorkloadParams{Interval: 100, Rounds: 15}).Makespan
	}
	if !(times[syncron.SchemeIdeal] <= times[syncron.SchemeSynCron] &&
		times[syncron.SchemeSynCron] <= times[syncron.SchemeHier] &&
		times[syncron.SchemeHier] <= times[syncron.SchemeCentral]) {
		t.Fatalf("fig10 ordering violated: %v", times)
	}
}

// TestShapeFig15 checks SynCron moves less data across units than Central.
func TestShapeFig15(t *testing.T) {
	p := syncron.WorkloadParams{Scale: 0.05}
	c := paperRun(t, "pr.wk", syncron.Config{Scheme: syncron.SchemeCentral}, p)
	s := paperRun(t, "pr.wk", syncron.Config{Scheme: syncron.SchemeSynCron}, p)
	if s.BytesAcrossUnits >= c.BytesAcrossUnits {
		t.Fatalf("syncron inter-unit bytes %d not below central %d", s.BytesAcrossUnits, c.BytesAcrossUnits)
	}
}

// TestShapeFig22 checks that shrinking the ST induces overflow and slowdown
// on the sync-intensive time-series workload.
func TestShapeFig22(t *testing.T) {
	p := syncron.WorkloadParams{Scale: 0.15}
	big := paperRun(t, "ts.air", syncron.Config{Scheme: syncron.SchemeSynCron, STEntries: 64}, p)
	small := paperRun(t, "ts.air", syncron.Config{Scheme: syncron.SchemeSynCron, STEntries: 4}, p)
	if small.OverflowedFraction == 0 {
		t.Fatal("4-entry ST did not overflow on ts.air")
	}
	if small.Makespan <= big.Makespan {
		t.Fatalf("overflowing ST (%v) not slower than 64-entry (%v)", small.Makespan, big.Makespan)
	}
}

// TestShapeTable1 checks the NUMA penalty reproduces.
func TestShapeTable1(t *testing.T) {
	cfg := syncron.Config{Scheme: syncron.SchemeTTAS, Units: 2, CoresPerUnit: 14}
	same := pinnedLock(cfg, []int{0, 1}, 40, 60)
	diff := pinnedLock(cfg, []int{0, 14}, 40, 60)
	if diff.Makespan <= same.Makespan {
		t.Fatalf("cross-socket makespan %v not above same-socket %v", diff.Makespan, same.Makespan)
	}
}

// TestShapeFig21b checks SynCron beats flat under high contention with slow
// links.
func TestShapeFig21b(t *testing.T) {
	link := 500 * syncron.Nanosecond
	p := syncron.WorkloadParams{Size: 128, OpsPerCore: 10}
	sc := paperRun(t, "queue", syncron.Config{Scheme: syncron.SchemeSynCron, LinkLatency: link}, p)
	fl := paperRun(t, "queue", syncron.Config{Scheme: syncron.SchemeSynCronFlat, LinkLatency: link}, p)
	if sc.Makespan >= fl.Makespan {
		t.Fatalf("syncron (%v) not faster than flat (%v) on contended queue with %v links",
			sc.Makespan, fl.Makespan, link)
	}
}

// TestAblationFairnessSkew checks the skew column is the spread between the
// first and last pinned core to finish, as a fraction of the makespan.
func TestAblationFairnessSkew(t *testing.T) {
	a, _ := syncron.LookupPaperArtifact("ablation-fairness")
	figs, err := a.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, r := range figs[0].Rows {
		if r[0] == "8" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("no threshold-8 row")
	}
	pinned := make([]int, 60)
	for i := range pinned {
		pinned[i] = i
	}
	rep := pinnedLock(syncron.Config{Scheme: syncron.SchemeSynCron, FairnessThreshold: 8}, pinned, 20, 60)
	first, last := rep.PerCore[0].Finish, rep.PerCore[0].Finish
	for _, c := range rep.PerCore {
		first, last = min(first, c.Finish), max(last, c.Finish)
	}
	want := fmt.Sprintf("%.2f", float64(last-first)/float64(rep.Makespan))
	if row[1] != rep.Makespan.String() || row[3] != want {
		t.Fatalf("threshold 8: makespan %s skew %s, want %v and %s (finishes %v..%v)",
			row[1], row[3], rep.Makespan, want, first, last)
	}
}

// TestCoherenceLockRunsRepeat checks coherence-lock runs are deterministic:
// directory invalidations contend for links, so their order must not come
// from map iteration.
func TestCoherenceLockRunsRepeat(t *testing.T) {
	cfg := syncron.Config{Scheme: syncron.SchemeMESILock, Units: 2, CoresPerUnit: 30}
	p := syncron.WorkloadParams{Size: 102, OpsPerCore: 10}
	first := paperRun(t, "stack", cfg, p).Makespan
	for i := 0; i < 4; i++ {
		if again := paperRun(t, "stack", cfg, p).Makespan; again != first {
			t.Fatalf("repeat %d: makespan %v, first run %v", i+1, again, first)
		}
	}
}
