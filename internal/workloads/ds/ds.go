// Package ds implements the paper's pointer-chasing workloads (Table 6):
// nine lock-based concurrent data structures used as key-value sets, ported
// from ASCYLIB and RCU-HTM as the paper did. Every structure keeps its nodes
// in simulated shared read-write memory (uncacheable, per the software
// coherence model), so traversals are genuine pointer-chasing DRAM accesses,
// and guards them with synchronization variables serviced by the backend
// under test.
//
// The functional state of each structure is mirrored in host Go data so that
// operations are semantically checked (a pop really pops, a deletion really
// unlinks) while the simulator charges the memory and synchronization costs.
// Every shared read here is Read, never ReadSettled: the unlocked probes
// follow pointers that other cores change, so no check on them settles.
package ds

import (
	"fmt"
	"sort"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// dataStructure is one benchmarkable concurrent data structure.
type dataStructure interface {
	// Op performs one operation (the Table-6 mix) on behalf of the calling
	// core's program.
	Op(ctx *program.Ctx)
	// Check validates functional invariants after a run; it returns an error
	// describing the first violation.
	Check() error
}

// structure is one Table-6 row: the name, the initial element count and the
// builder placing size elements on m.
type structure struct {
	name  string
	size  int
	build func(m *arch.Machine, size int, rng *sim.RNG) dataStructure
}

// structures lists all nine in the paper's Figure-11 order.
var structures = []structure{
	{"stack", 100_000, newStack},
	{"queue", 100_000, newQueue},
	{"arraymap", 10, newArrayMap},
	{"priorityqueue", 20_000, newPriorityQueue},
	{"skiplist", 5_000, newSkipList},
	{"hashtable", 1_000, newHashTable},
	{"linkedlist", 20_000, newLinkedList},
	{"bst_fg", 20_000, newBSTFG},
	{"bst_drachsler", 10_000, newBSTDrachsler},
}

func lookup(name string) structure {
	for _, s := range structures {
		if s.name == name {
			return s
		}
	}
	panic(fmt.Sprintf("ds: unknown data structure %q", name))
}

// Names lists all nine structures in the paper's Figure-11 order.
func Names() []string {
	names := make([]string, len(structures))
	for i, s := range structures {
		names[i] = s.name
	}
	return names
}

// PaperSize returns the Table-6 initial size for a structure.
func PaperSize(name string) int { return lookup(name).size }

// Build places the named structure with size initial elements on m, spread
// across all of its units, and registers one program per core that performs
// ops operations. It returns the structure's functional check.
func Build(m *arch.Machine, r *program.Runner, name string, size, ops int) func() error {
	d := lookup(name).build(m, size, sim.NewRNG(m.Cfg.Seed+100))
	r.AddN(m.NumCores(), func(int) program.Program {
		return func(ctx *program.Ctx) {
			for k := 0; k < ops; k++ {
				d.Op(ctx)
			}
		}
	})
	return d.Check
}

// allocFunc is m.AllocShared for node lines and m.Alloc for synchronization
// variables: cores only touch those through the synchronization backend, so
// they live in the cacheable arena (server cores legitimately cache them;
// SynCron only uses the address as identity + home).
type allocFunc func(unit int, size uint64) uint64

// partitionAlloc spreads n lines across units in contiguous chunks (the
// paper's static partitioning).
func partitionAlloc(alloc allocFunc, n, units int) []uint64 {
	addrs := make([]uint64, n)
	per := (n + units - 1) / units
	for i := 0; i < n; i++ {
		addrs[i] = alloc(i/per%units, 64)
	}
	return addrs
}

// randomAlloc spreads n lines across units uniformly at random (the paper
// distributes BSTs randomly).
func randomAlloc(alloc allocFunc, n, units int, rng *sim.RNG) []uint64 {
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		addrs[i] = alloc(rng.Intn(units), 64)
	}
	return addrs
}

// keysSorted returns n distinct pseudo-random keys in ascending order.
func keysSorted(n int, rng *sim.RNG) []int {
	seen := make(map[int]bool, n)
	keys := make([]int, 0, n)
	for len(keys) < n {
		k := rng.Intn(n * 8)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}
