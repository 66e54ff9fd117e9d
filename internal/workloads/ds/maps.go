package ds

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// arrayMap is ASCYLIB's array map (Table 6: 10 elements, 100% lookup): a
// coarse lock around a linear scan — tiny structure, long critical section,
// extreme contention.
type arrayMap struct {
	lock  uint64
	slots []uint64
}

func newArrayMap(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	am := &arrayMap{lock: m.Alloc(0, 64)}
	am.slots = partitionAlloc(m.AllocShared, size, 1) // 10 slots live in one unit
	return am
}

func (am *arrayMap) Op(ctx *program.Ctx) {
	key := ctx.RNG.Intn(len(am.slots))
	ctx.Lock(am.lock)
	// Linear scan up to the key's slot (uniform average: half the array).
	for i := 0; i <= key; i++ {
		ctx.Read(am.slots[i])
	}
	ctx.Unlock(am.lock)
}

func (am *arrayMap) Check() error { return nil }

// hashTable is the per-bucket-lock hash table (Table 6: 1K, 100% lookup):
// medium contention — cores usually hit different buckets.
type hashTable struct {
	bucketLocks []uint64
	buckets     [][]uint64 // chain node lines per bucket
	keys        int
}

func newHashTable(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	nbuckets := size / 4
	if nbuckets < 4 {
		nbuckets = 4
	}
	ht := &hashTable{keys: size}
	ht.bucketLocks = partitionAlloc(m.Alloc, nbuckets, m.Cfg.Units)
	nodes := partitionAlloc(m.AllocShared, size, m.Cfg.Units)
	ht.buckets = make([][]uint64, nbuckets)
	for i, n := range nodes {
		b := i % nbuckets
		ht.buckets[b] = append(ht.buckets[b], n)
	}
	return ht
}

func (ht *hashTable) Op(ctx *program.Ctx) {
	key := ctx.RNG.Intn(ht.keys)
	b := key % len(ht.buckets)
	ctx.Lock(ht.bucketLocks[b])
	chain := ht.buckets[b]
	// Walk the chain to the key's node.
	steps := key/len(ht.buckets) + 1
	if steps > len(chain) {
		steps = len(chain)
	}
	for i := 0; i < steps; i++ {
		ctx.Read(chain[i])
	}
	ctx.Unlock(ht.bucketLocks[b])
}

func (ht *hashTable) Check() error {
	total := 0
	for _, b := range ht.buckets {
		total += len(b)
	}
	if total != ht.keys {
		return fmt.Errorf("hash table holds %d nodes, want %d", total, ht.keys)
	}
	return nil
}
