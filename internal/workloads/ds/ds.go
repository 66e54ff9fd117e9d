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
package ds

import (
	"fmt"
	"sort"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// DataStructure is one benchmarkable concurrent data structure.
type DataStructure interface {
	// Name is the Table-6 name.
	Name() string
	// Op performs one operation (the Table-6 mix) on behalf of the calling
	// core's program.
	Op(ctx *program.Ctx, rng *sim.RNG)
	// Check validates functional invariants after a run; it returns an error
	// describing the first violation.
	Check() error
}

// Config scales a data structure.
type Config struct {
	// Size is the initial element count (Table 6 column 2).
	Size int
	// Units the structure is partitioned across.
	Units int
}

// Builder constructs a data structure on machine m.
type Builder func(m *arch.Machine, cfg Config, rng *sim.RNG) DataStructure

// Names lists all nine structures in the paper's Figure-11 order.
func Names() []string {
	return []string{"stack", "queue", "arraymap", "priorityqueue", "skiplist",
		"hashtable", "linkedlist", "bst_fg", "bst_drachsler"}
}

// SplitAccess reports whether a structure runs with the program runner's
// split-access event order (program.Runner.SplitAccess). The structures that
// touch shared host state only inside simulated critical sections use it.
// The optimistic ones read shared nodes outside their locks — stack (pre-lock
// top probe), skiplist (unlocked search over next pointers and deletion
// marks), bst_drachsler (lock-free search reading mutable tree links) — and
// model every access inline. The split moves same-timestamp contention
// order, so changing this set changes results.
func SplitAccess(name string) bool {
	switch name {
	case "stack", "skiplist", "bst_drachsler":
		return false
	default:
		return true
	}
}

// PaperSize returns the Table-6 initial size for a structure.
func PaperSize(name string) int {
	switch name {
	case "stack", "queue":
		return 100_000
	case "arraymap":
		return 10
	case "priorityqueue", "linkedlist", "bst_fg":
		return 20_000
	case "skiplist":
		return 5_000
	case "hashtable":
		return 1_000
	case "bst_drachsler":
		return 10_000
	default:
		panic("ds: unknown structure " + name)
	}
}

// New builds the named structure.
func New(name string, m *arch.Machine, cfg Config, rng *sim.RNG) DataStructure {
	b, ok := builders[name]
	if !ok {
		panic(fmt.Sprintf("ds: unknown data structure %q", name))
	}
	if cfg.Units == 0 {
		cfg.Units = m.Cfg.Units
	}
	if cfg.Size == 0 {
		cfg.Size = PaperSize(name)
	}
	return b(m, cfg, rng)
}

var builders = map[string]Builder{
	"stack":         newStack,
	"queue":         newQueue,
	"arraymap":      newArrayMap,
	"priorityqueue": newPriorityQueue,
	"skiplist":      newSkipList,
	"hashtable":     newHashTable,
	"linkedlist":    newLinkedList,
	"bst_fg":        newBSTFG,
	"bst_drachsler": newBSTDrachsler,
}

// partitionAlloc spreads n shared read-write (uncacheable) lines across
// units in contiguous chunks (the paper's static partitioning).
func partitionAlloc(m *arch.Machine, n, units int) []uint64 {
	if units > m.Cfg.Units {
		units = m.Cfg.Units
	}
	addrs := make([]uint64, n)
	per := (n + units - 1) / units
	for i := 0; i < n; i++ {
		addrs[i] = m.AllocShared(i/per%units, 64)
	}
	return addrs
}

// partitionLocks is partitionAlloc for synchronization variables: cores only
// touch them through the synchronization backend, so they live in the
// cacheable arena (server cores legitimately cache them; SynCron only uses
// the address as identity + home).
func partitionLocks(m *arch.Machine, n, units int) []uint64 {
	if units > m.Cfg.Units {
		units = m.Cfg.Units
	}
	addrs := make([]uint64, n)
	per := (n + units - 1) / units
	for i := 0; i < n; i++ {
		addrs[i] = m.Alloc(i/per%units, 64)
	}
	return addrs
}

// randomAlloc spreads n shared lines across units uniformly at random (the
// paper distributes BSTs randomly).
func randomAlloc(m *arch.Machine, n, units int, rng *sim.RNG) []uint64 {
	if units > m.Cfg.Units {
		units = m.Cfg.Units
	}
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		addrs[i] = m.AllocShared(rng.Intn(units), 64)
	}
	return addrs
}

// randomLocks is randomAlloc for synchronization variables (see
// partitionLocks).
func randomLocks(m *arch.Machine, n, units int, rng *sim.RNG) []uint64 {
	if units > m.Cfg.Units {
		units = m.Cfg.Units
	}
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		addrs[i] = m.Alloc(rng.Intn(units), 64)
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
