package main

import (
	"fmt"
	"math"

	"syncron"
)

// claim is one headline number of the paper: its value, the figure it is
// quoted from (figures.go repeats each in a figure note), and how to
// reproduce it from the results of one grid through the public analysis
// functions.
type claim struct {
	id     string
	source string
	paper  float64
	eval   func(results []syncron.RunResult) (float64, error)
}

// The claims the benchmark tracks. Speedups and reductions are geomeans over
// every (workload, grid point) the grid holds; scalability is the mean over
// the scaling curves.
var (
	claimHierSpeedup = claim{"hier_speedup_vs_central", "Figure 12", 1.19,
		overallSpeedup(syncron.SchemeCentral, syncron.SchemeHier)}
	claimSynCronSpeedup = claim{"syncron_speedup_vs_central", "Figure 12", 1.47,
		overallSpeedup(syncron.SchemeCentral, syncron.SchemeSynCron)}
	claimIdealSpeedup = claim{"ideal_speedup_vs_central", "Figure 12", 1.62,
		overallSpeedup(syncron.SchemeCentral, syncron.SchemeIdeal)}
	claimSynCronEnergy = claim{"syncron_energy_reduction_vs_central", "Figure 14", 2.22,
		inverse(energyRatio(syncron.SchemeCentral, syncron.SchemeSynCron))}
	claimSynCronTraffic = claim{"syncron_traffic_reduction_vs_central", "Figure 15", 2.08,
		inverse(trafficRatio(syncron.SchemeCentral, syncron.SchemeSynCron))}
	claimSynCronScaling = claim{"syncron_scalability_at_4_units", "Figure 13", 2.03,
		meanScalability(syncron.SchemeSynCron, 4)}
	// "SynCron within 9.5% of Ideal": Ideal is 1/(1-0.095) times faster.
	claimIdealOverSynCron = claim{"ideal_speedup_vs_syncron", "Figure 12", 1 / (1 - 0.095),
		overallSpeedup(syncron.SchemeSynCron, syncron.SchemeIdeal)}
	// "within 6.2% of Ideal" in energy: SynCron spends 1.062x Ideal's energy.
	claimSynCronEnergyOverIdeal = claim{"syncron_energy_vs_ideal", "Figure 14", 1.062,
		energyRatio(syncron.SchemeIdeal, syncron.SchemeSynCron)}
)

// gridClaim binds a claim to the grid of a workload it is evaluated on.
type gridClaim struct {
	grid  string
	claim claim
}

// paperGap returns the mean |ln(reproduced / paper)| over claims, each
// evaluated on its grid's results. It is 0 when every claim is reproduced
// exactly.
func paperGap(claims []gridClaim, results map[string][]syncron.RunResult) (float64, error) {
	if len(claims) == 0 {
		return 0, fmt.Errorf("no paper claims to compare against")
	}
	var sum float64
	for _, gc := range claims {
		v, err := gc.claim.eval(results[gc.grid])
		if err != nil {
			return 0, fmt.Errorf("claim %s on grid %s: %w", gc.claim.id, gc.grid, err)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("claim %s on grid %s: reproduced value %v is not positive", gc.claim.id, gc.grid, v)
		}
		sum += math.Abs(math.Log(v / gc.claim.paper))
	}
	return sum / float64(len(claims)), nil
}

// overallSpeedup is the geomean speedup of scheme over baseline.
func overallSpeedup(baseline, scheme syncron.Scheme) func([]syncron.RunResult) (float64, error) {
	return func(rs []syncron.RunResult) (float64, error) {
		t, err := syncron.SpeedupVsBaseline(rs, baseline)
		if err != nil {
			return 0, err
		}
		return t.OverallGeomean[scheme], nil
	}
}

// energyRatio is the geomean of scheme's total energy relative to
// baseline's on the same grid point.
func energyRatio(baseline, scheme syncron.Scheme) func([]syncron.RunResult) (float64, error) {
	return func(rs []syncron.RunResult) (float64, error) {
		rows, err := syncron.EnergyBreakdown(rs, baseline)
		if err != nil {
			return 0, err
		}
		var totals []float64
		for _, r := range rows {
			if r.Scheme == scheme {
				totals = append(totals, r.Total)
			}
		}
		return syncron.Geomean(totals), nil
	}
}

// trafficRatio is the geomean of scheme's bytes moved relative to
// baseline's on the same grid point.
func trafficRatio(baseline, scheme syncron.Scheme) func([]syncron.RunResult) (float64, error) {
	return func(rs []syncron.RunResult) (float64, error) {
		rows, err := syncron.TrafficBreakdown(rs, baseline)
		if err != nil {
			return 0, err
		}
		var totals []float64
		for _, r := range rows {
			if r.Scheme == scheme {
				totals = append(totals, r.Total)
			}
		}
		return syncron.Geomean(totals), nil
	}
}

// inverse turns a ratio into the reduction factor the paper quotes.
func inverse(f func([]syncron.RunResult) (float64, error)) func([]syncron.RunResult) (float64, error) {
	return func(rs []syncron.RunResult) (float64, error) {
		v, err := f(rs)
		if err != nil || v == 0 {
			return 0, err
		}
		return 1 / v, nil
	}
}

// meanScalability is the mean speedup of scheme at the given unit count
// over its smallest configuration, across the scaling curves.
func meanScalability(scheme syncron.Scheme, units int) func([]syncron.RunResult) (float64, error) {
	return func(rs []syncron.RunResult) (float64, error) {
		curves, err := syncron.Scalability(rs, scheme)
		if err != nil {
			return 0, err
		}
		var sum float64
		n := 0
		for _, c := range curves {
			for _, pt := range c.Points {
				if pt.Units == units {
					sum += pt.Speedup
					n++
				}
			}
		}
		if n == 0 {
			return 0, fmt.Errorf("no %s run at %d units", scheme, units)
		}
		return sum / float64(n), nil
	}
}
