package main

import (
	"math"
	"testing"

	"syncron"
)

// runResult builds one successful run of the hand-made result set.
func runResult(workload string, scheme syncron.Scheme, units int, makespan, energy float64, bytes uint64) syncron.RunResult {
	return syncron.RunResult{
		Spec: syncron.RunSpec{Workload: workload,
			Config: syncron.Config{Scheme: scheme, Units: units, CoresPerUnit: 15}},
		Kind:             syncron.KindGraph,
		Makespan:         syncron.Time(math.Round(makespan)),
		CacheEnergyPJ:    energy,
		BytesInsideUnits: bytes,
	}
}

// paperResults is a main grid whose geomeans reproduce every Figure 12, 14
// and 15 claim exactly, with the two workloads deviating in opposite
// directions, and a scalability grid whose mean at 4 units is 2.03.
func paperResults() map[string][]syncron.RunResult {
	const base = 1e12 // ps; large, so rounding to whole picoseconds is negligible
	var main []syncron.RunResult
	for _, w := range []struct {
		name string
		skew float64
	}{{"a", 1.1}, {"b", 1 / 1.1}} {
		main = append(main,
			runResult(w.name, syncron.SchemeCentral, 4, base, 2220*w.skew, uint64(2080*w.skew)),
			runResult(w.name, syncron.SchemeHier, 4, base/(1.19*w.skew), 2000, 2000),
			runResult(w.name, syncron.SchemeSynCron, 4, base/(1.47*w.skew), 1000, 1000),
			runResult(w.name, syncron.SchemeIdeal, 4, base/(1.62*w.skew), 900, 900))
	}
	var scal []syncron.RunResult
	for _, w := range []struct {
		name    string
		speedup float64
	}{{"a", 2.5}, {"b", 1.56}} {
		scal = append(scal,
			runResult(w.name, syncron.SchemeSynCron, 1, base, 1, 1),
			runResult(w.name, syncron.SchemeSynCron, 2, base/1.5, 1, 1),
			runResult(w.name, syncron.SchemeSynCron, 4, base/w.speedup, 1, 1))
	}
	return map[string][]syncron.RunResult{"main": main, "scalability": scal}
}

func TestPaperGapZeroWhenClaimsReproduced(t *testing.T) {
	wl, _ := lookupWorkload("figures-quick")
	gap, err := paperGap(wl.claims, paperResults())
	if err != nil {
		t.Fatal(err)
	}
	// Integer byte counts and picosecond makespans leave a rounding residue.
	if gap > 1e-3 {
		t.Errorf("paper gap %v, want 0", gap)
	}
}

func TestPaperGapMeasuresLogDistance(t *testing.T) {
	rs := paperResults()
	for i := range rs["main"] {
		if rs["main"][i].Spec.Config.Scheme == syncron.SchemeSynCron {
			rs["main"][i].Makespan = syncron.Time(math.Round(float64(rs["main"][i].Makespan) / math.E))
		}
	}
	// SynCron is now e times faster than the paper says; the other claims
	// are unchanged.
	gap, err := paperGap([]gridClaim{{"main", claimSynCronSpeedup}}, rs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap-1) > 1e-6 {
		t.Errorf("gap of one claim off by e: %v, want 1", gap)
	}
	wl, _ := lookupWorkload("figures-quick")
	gap, err = paperGap(wl.claims, rs)
	if err != nil {
		t.Fatal(err)
	}
	// The Ideal-vs-SynCron claims are not in figures-quick's list, so only
	// one of its six claims moved.
	if math.Abs(gap-1.0/6) > 1e-3 {
		t.Errorf("gap over six claims: %v, want 1/6", gap)
	}
}

func TestPaperGapFailsOnMissingBaseline(t *testing.T) {
	rs := paperResults()
	if _, err := paperGap([]gridClaim{{"scalability", claimSynCronSpeedup}}, rs); err == nil {
		t.Error("speedup claim on a grid without Central runs: want an error")
	}
}
