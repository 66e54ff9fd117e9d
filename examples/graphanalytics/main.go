// Graph analytics example: run the paper's six CRONO-style applications on
// a synthetic power-law graph under every synchronization scheme, printing
// speedups and data-movement — a miniature Figure 12 + Figure 15.
//
//	go run ./examples/graphanalytics
package main

import (
	"fmt"

	"syncron"
)

// run executes app on the "wk" input (a synthetic stand-in for
// wikipedia-20051105 at a tenth of the default size) on the default 4-unit
// system under scheme.
func run(app string, scheme syncron.Scheme) syncron.RunResult {
	res := syncron.Execute(syncron.RunSpec{Workload: app + ".wk",
		Config: syncron.Config{Scheme: scheme}, Params: syncron.WorkloadParams{Scale: 0.1}})
	if res.Err != "" {
		panic(fmt.Sprintf("%s under %s: %s", app, scheme, res.Err))
	}
	return res
}

func main() {
	fmt.Print("graph wk at scale 0.1\n\n")
	fmt.Printf("%-6s  %-10s %-10s %-10s %-10s\n", "app", "central", "hier", "syncron", "ideal")
	for _, app := range []string{"bfs", "cc", "sssp", "pr", "tf", "tc"} {
		var base syncron.Time
		fmt.Printf("%-6s", app)
		for _, scheme := range []syncron.Scheme{
			syncron.SchemeCentral, syncron.SchemeHier,
			syncron.SchemeSynCron, syncron.SchemeIdeal,
		} {
			res := run(app, scheme)
			if scheme == syncron.SchemeCentral {
				base = res.Makespan
			}
			fmt.Printf("  %6.2fx   ", float64(base)/float64(res.Makespan))
		}
		fmt.Println()
	}

	// Data movement: SynCron vs Central on pagerank (Figure 15's story).
	fmt.Println("\npagerank data movement (bytes across NDP units):")
	for _, scheme := range []syncron.Scheme{syncron.SchemeCentral, syncron.SchemeSynCron} {
		res := run("pr", scheme)
		fmt.Printf("  %-8s inside %8d KB, across %8d KB\n",
			res.Spec.Config.Scheme, res.BytesInsideUnits/1024, res.BytesAcrossUnits/1024)
	}
}
