package ds

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// stack is the ASCYLIB lock-based stack (Table 6: 100K, 100% push): a singly
// linked list behind one coarse-grained lock — the paper's highest-contention
// structure, since every core fights for the head.
type stack struct {
	lock uint64
	head uint64 // line holding the top pointer

	pool    []uint64 // preallocated node lines for pushes
	nextIdx int
	depth   int // functional state: number of elements
	pushes  int
}

func newStack(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	s := &stack{
		lock:  m.Alloc(0, 64),
		head:  m.AllocShared(0, 64),
		depth: size,
	}
	// Nodes pushed during the run are partitioned like the initial body.
	s.pool = partitionAlloc(m.AllocShared, 4096, m.Cfg.Units)
	return s
}

func (s *stack) Op(ctx *program.Ctx) {
	node := s.pool[s.nextIdx%len(s.pool)]
	s.nextIdx++
	ctx.Write(node) // fill payload (thread-local prep)
	ctx.Lock(s.lock)
	ctx.Read(s.head)  // old top
	ctx.Write(node)   // node.next = old top
	ctx.Write(s.head) // top = node
	s.depth++
	s.pushes++
	ctx.Unlock(s.lock)
}

func (s *stack) Check() error {
	if s.depth != 100_000 && s.depth <= 0 {
		return fmt.Errorf("stack depth %d implausible", s.depth)
	}
	return nil
}

// queue is the Michael-Scott two-lock queue (Table 6: 100K, 100% pop):
// dequeues serialize on the head lock only.
type queue struct {
	headLock uint64
	head     uint64

	nodes []uint64 // initial body, popped front to back
	next  int
	pops  int
	size  int
}

func newQueue(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	q := &queue{
		headLock: m.Alloc(0, 64),
		head:     m.AllocShared(0, 64),
		size:     size,
	}
	n := size
	if n > 8192 {
		n = 8192 // only the popped prefix needs real addresses
	}
	q.nodes = partitionAlloc(m.AllocShared, n, m.Cfg.Units)
	return q
}

func (q *queue) Op(ctx *program.Ctx) {
	ctx.Lock(q.headLock)
	ctx.Read(q.head) // head pointer
	if q.size > 0 {
		node := q.nodes[q.next%len(q.nodes)]
		q.next++
		ctx.Read(node)    // node payload + next pointer
		ctx.Write(q.head) // advance head
		q.size--
		q.pops++
	}
	ctx.Unlock(q.headLock)
}

func (q *queue) Check() error {
	if q.pops > 0 && q.size < 0 {
		return fmt.Errorf("queue popped past empty: size %d", q.size)
	}
	return nil
}
