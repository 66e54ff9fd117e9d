package ds

import (
	"fmt"
	"math/bits"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// priorityQueue is the coarse-locked binary min-heap (Table 6: 20K, 100%
// deleteMin): high contention with a log-depth critical section.
type priorityQueue struct {
	lock  uint64
	slots []uint64 // heap array, line per element window
	size  int
	dels  int
}

func newPriorityQueue(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	pq := &priorityQueue{lock: m.Alloc(0, 64), size: size}
	// Only the top levels of the heap are touched by sift-down paths; map
	// heap indices onto a bounded set of lines. The heap array is
	// line-interleaved across units (array striping) so the hot top levels
	// do not all land in one unit.
	n := size
	if n > 4096 {
		n = 4096
	}
	pq.slots = make([]uint64, n)
	for i := range pq.slots {
		pq.slots[i] = m.AllocShared(i%m.Cfg.Units, 64)
	}
	return pq
}

func (pq *priorityQueue) slot(i int) uint64 { return pq.slots[i%len(pq.slots)] }

func (pq *priorityQueue) Op(ctx *program.Ctx) {
	ctx.Lock(pq.lock)
	if pq.size > 1 {
		ctx.Read(pq.slot(0))           // min
		ctx.Read(pq.slot(pq.size - 1)) // last
		ctx.Write(pq.slot(0))          // move last to root
		depth := bits.Len(uint(pq.size)) - 1
		idx := 0
		for d := 0; d < depth; d++ { // sift down
			l, r := 2*idx+1, 2*idx+2
			if l < pq.size {
				ctx.Read(pq.slot(l))
			}
			if r < pq.size {
				ctx.Read(pq.slot(r))
			}
			ctx.Write(pq.slot(idx))
			idx = l
		}
		pq.size--
		pq.dels++
	}
	ctx.Unlock(pq.lock)
}

func (pq *priorityQueue) Check() error {
	if pq.size < 1 {
		return fmt.Errorf("priority queue drained below 1: %d", pq.size)
	}
	return nil
}

// skipNode is one functional skip-list node.
type skipNode struct {
	key    int
	height int
	addr   uint64
	lock   uint64
	next   []*skipNode
	dead   bool
}

// skipList is the fine-grained-locking skip list (Table 6: 5K, 100%
// deletion): medium contention, cores work on different towers.
type skipList struct {
	maxLevel int
	head     *skipNode
	nkeys    int
	deleted  int
}

func newSkipList(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	sl := &skipList{maxLevel: 1}
	for 1<<sl.maxLevel < size {
		sl.maxLevel++
	}
	keys := keysSorted(size, rng)
	addrs := partitionAlloc(m.AllocShared, size, m.Cfg.Units)
	locks := partitionAlloc(m.Alloc, size+1, m.Cfg.Units) // +1: head sentinel lock
	sl.head = &skipNode{key: -1, height: sl.maxLevel, lock: locks[size],
		next: make([]*skipNode, sl.maxLevel)}
	// Build bottom-up deterministically: node i gets height = trailing
	// zeros of i+1 (a classic deterministic skip-list shape).
	prev := make([]*skipNode, sl.maxLevel)
	for i := range prev {
		prev[i] = sl.head
	}
	for i, k := range keys {
		h := bits.TrailingZeros(uint(i+1))%sl.maxLevel + 1
		n := &skipNode{key: k, height: h, addr: addrs[i], lock: locks[i], next: make([]*skipNode, h)}
		for l := 0; l < h; l++ {
			prev[l].next[l] = n
			prev[l] = n
		}
	}
	sl.nkeys = size
	return sl
}

func (sl *skipList) Op(ctx *program.Ctx) {
	target := ctx.RNG.Intn(sl.nkeys * 8)
	// Search from the top level, reading each visited node.
	preds := make([]*skipNode, sl.maxLevel)
	cur := sl.head
	for l := sl.maxLevel - 1; l >= 0; l-- {
		for cur.next[l] != nil && cur.next[l].key < target {
			cur = cur.next[l]
			ctx.Read(cur.addr)
		}
		preds[l] = cur
	}
	victim := cur.next[0]
	if victim == nil || victim.dead {
		return
	}
	ctx.Read(victim.addr)
	// Lock predecessor and victim (fine-grained deletion), in global address
	// order to stay deadlock-free.
	lo, hi := preds[0].lock, victim.lock
	if lo > hi {
		lo, hi = hi, lo
	}
	ctx.Lock(lo)
	if hi != lo {
		ctx.Lock(hi)
	}
	if !victim.dead {
		// Revalidate predecessors after locking (the search snapshot may be
		// stale — real implementations validate-and-retry; we recompute) and
		// unlink atomically with respect to simulated interleavings, then
		// charge the unlink writes.
		cur := sl.head
		for l := sl.maxLevel - 1; l >= 0; l-- {
			for cur.next[l] != nil && cur.next[l].key < victim.key {
				cur = cur.next[l]
			}
			preds[l] = cur
		}
		victim.dead = true
		unlinked := 0
		for l := 0; l < victim.height; l++ {
			if preds[l].next[l] == victim {
				preds[l].next[l] = victim.next[l]
				unlinked++
			}
		}
		sl.deleted++
		for l := 0; l < unlinked; l++ {
			ctx.Write(preds[l].lock) // unlink write on pred's line
		}
	}
	if hi != lo {
		ctx.Unlock(hi)
	}
	ctx.Unlock(lo)
}

func (sl *skipList) Check() error {
	// The level-0 chain must stay sorted and contain no dead nodes.
	prevKey := -1
	alive := 0
	for n := sl.head.next[0]; n != nil; n = n.next[0] {
		if n.dead {
			return fmt.Errorf("skiplist: dead node %d still linked", n.key)
		}
		if n.key <= prevKey {
			return fmt.Errorf("skiplist: order violation %d after %d", n.key, prevKey)
		}
		prevKey = n.key
		alive++
	}
	if alive+sl.deleted != sl.nkeys {
		return fmt.Errorf("skiplist: %d alive + %d deleted != %d", alive, sl.deleted, sl.nkeys)
	}
	return nil
}
