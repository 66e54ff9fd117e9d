// Quickstart: compare a contended lock on SynCron vs the Central baseline
// and the Ideal upper bound — the paper's core result in ~50 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"syncron"
)

func run(scheme syncron.Scheme) syncron.Report {
	sys := syncron.New(syncron.Config{Scheme: scheme})

	// One lock, homed in NDP unit 0; its Master SE is unit 0's SE.
	lock := sys.AllocLocal(0, 64)
	// A shared counter in unit 0's memory (uncacheable read-write data).
	counter := sys.AllocShared(0, 64)

	value := 0
	sys.Spawn(sys.NumCores(), func(ctx *syncron.Context) {
		for i := 0; i < 50; i++ {
			ctx.Lock(lock)
			ctx.Read(counter) // critical section: read-modify-write
			value++
			ctx.Write(counter)
			ctx.Unlock(lock)
			ctx.Compute(200) // private work between critical sections
		}
	})
	rep := sys.Run()
	if value != sys.NumCores()*50 {
		panic("lost updates — mutual exclusion would have been violated")
	}
	return rep
}

func main() {
	fmt.Println("60 NDP cores incrementing one shared counter, 50 times each:")
	fmt.Println()
	base := run(syncron.SchemeCentral)
	for _, scheme := range []syncron.Scheme{
		syncron.SchemeCentral, syncron.SchemeHier,
		syncron.SchemeSynCron, syncron.SchemeIdeal,
	} {
		rep := run(scheme)
		fmt.Printf("  %-8s  makespan %-12v  speedup vs central %.2fx  energy %.1f uJ\n",
			rep.Scheme, rep.Makespan,
			float64(base.Makespan)/float64(rep.Makespan),
			rep.TotalEnergyPJ()/1e6)
	}
	fmt.Println()
	fmt.Println("SynCron wins by keeping the lock in the Synchronization Table of the")
	fmt.Println("unit that owns it and batching remote requests SE-to-SE.")
}
