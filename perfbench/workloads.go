package main

import "syncron"

// grid is one named batch of seed-resolved runs of a workload.
type grid struct {
	name  string
	specs []syncron.RunSpec
}

// workload is one closed batch the benchmark runs: its grids execute back to
// back, one run at a time on one goroutine (sweep Workers 1), every run on
// the serial event dispatcher. The intra-run parallel dispatcher is left
// unmeasured: it needs more host CPUs than the two the benchmark is tuned
// for.
type workload struct {
	name string
	// grids expands the workload's runs for a base seed.
	grids func(seed uint64) []grid
	// claims are the paper numbers paper_gap compares the results with.
	claims []gridClaim
	// figures renders the figures-quick Markdown from the pass's results.
	figures bool
}

// contendedRounds is the synchronization points per core of the primitive
// microbenchmarks in sync-contended, raised from the default (110 at scale 1)
// so one pass takes several seconds.
const contendedRounds = 1500

// overflowSTEntries is an ST size from the figures ablation list at which
// bst_fg overflows the Synchronization Table (ablation: 29% of requests).
const overflowSTEntries = 8

var workloads = []workload{
	{
		name:  "figures-quick",
		grids: figuresQuickGrids,
		claims: []gridClaim{
			{"main", claimHierSpeedup},
			{"main", claimSynCronSpeedup},
			{"main", claimIdealSpeedup},
			{"main", claimSynCronEnergy},
			{"main", claimSynCronTraffic},
			{"scalability", claimSynCronScaling},
		},
		figures: true,
	},
	{
		name:  "sync-contended",
		grids: syncContendedGrids,
		claims: []gridClaim{
			{"primitives", claimHierSpeedup},
			{"primitives", claimSynCronSpeedup},
			{"primitives", claimSynCronEnergy},
			{"primitives", claimSynCronTraffic},
		},
	},
	{
		name:  "graph-memory",
		grids: graphMemoryGrids,
		claims: []gridClaim{
			{"graphs", claimIdealOverSynCron},
			{"graphs", claimSynCronEnergyOverIdeal},
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// figuresOptions are the options of `syncron-sim figures --quick`, run
// serially.
func figuresOptions(seed uint64) syncron.FigureOptions {
	return syncron.FigureOptions{Quick: true, BaseSeed: seed, Workers: 1,
		Parallelism: syncron.ParallelismSerial}
}

// figuresQuickGrids are the canonical FigureSweeps(Quick) grids.
func figuresQuickGrids(seed uint64) []grid {
	names := []string{"main", "scalability", "st-ablation"}
	var grids []grid
	for i, s := range syncron.FigureSweeps(figuresOptions(seed)) {
		grids = append(grids, grid{names[i], syncron.ResolveSeeds(s.Expand(), s.BaseSeed)})
	}
	return grids
}

// syncContendedGrids are the four primitives under the message-passing and
// SynCron schemes, plus bst_fg on an overflowing Synchronization Table.
func syncContendedGrids(seed uint64) []grid {
	serial := syncron.Config{Parallelism: syncron.ParallelismSerial}
	prims := syncron.Sweep{
		Workloads: []string{"lock", "barrier", "semaphore", "condvar"},
		Schemes: []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeHier,
			syncron.SchemeSynCron, syncron.SchemeSynCronFlat},
		Params: syncron.WorkloadParams{Rounds: contendedRounds},
		Base:   serial,
	}
	overflow := syncron.Sweep{
		Workloads: []string{"bst_fg"},
		Schemes:   []syncron.Scheme{syncron.SchemeSynCron},
		STEntries: []int{overflowSTEntries},
		Base:      serial,
	}
	return []grid{
		{"primitives", syncron.ResolveSeeds(prims.Expand(), seed)},
		{"overflow", syncron.ResolveSeeds(overflow.Expand(), seed+1)},
	}
}

// graphMemoryGrids are four graph applications at scale 1 under SynCron and
// the zero-cost Ideal scheme, on both DRAM timing models.
func graphMemoryGrids(seed uint64) []grid {
	graphs := syncron.Sweep{
		Workloads: []string{"pr.wk", "bfs.sl", "cc.co", "sssp.sx"},
		Schemes:   []syncron.Scheme{syncron.SchemeSynCron, syncron.SchemeIdeal},
		MemModels: []syncron.MemModel{syncron.MemModelFlat, syncron.MemModelBank},
		Params:    syncron.WorkloadParams{Scale: 1},
		Base:      syncron.Config{Parallelism: syncron.ParallelismSerial},
	}
	return []grid{{"graphs", syncron.ResolveSeeds(graphs.Expand(), seed)}}
}
