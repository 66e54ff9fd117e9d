package ds

import (
	"fmt"

	"syncron/internal/arch"
	"syncron/internal/program"
	"syncron/internal/sim"
)

// listNode is a functional sorted-list node.
type listNode struct {
	key  int
	addr uint64
	lock uint64
	next *listNode
}

// linkedList is the hand-over-hand (lock-coupling) sorted linked list
// (Table 6: 20K, 100% lookup): low contention but very high synchronization
// demand — every traversal step acquires a lock, and each core holds two
// locks at once, which is what overflows small STs (§6.7.3).
type linkedList struct {
	head   *listNode
	nkeys  int
	maxKey int
}

func newLinkedList(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	keys := keysSorted(size, rng)
	addrs := partitionAlloc(m.AllocShared, size, m.Cfg.Units)
	locks := partitionAlloc(m.Alloc, size, m.Cfg.Units)
	ll := &linkedList{nkeys: size, maxKey: keys[len(keys)-1]}
	var prev *listNode
	for i := len(keys) - 1; i >= 0; i-- {
		prev = &listNode{key: keys[i], addr: addrs[i], lock: locks[i], next: prev}
	}
	ll.head = &listNode{key: -1, addr: addrs[0], lock: locks[0], next: prev}
	return ll
}

func (ll *linkedList) Op(ctx *program.Ctx) {
	target := ctx.RNG.Intn(ll.maxKey + 1)
	// Lock coupling: hold the current node's lock while locking the next.
	cur := ll.head.next
	if cur == nil {
		return
	}
	ctx.Lock(cur.lock)
	ctx.Read(cur.addr)
	for cur.next != nil && cur.key < target {
		next := cur.next
		ctx.Lock(next.lock)
		ctx.Read(next.addr)
		ctx.Unlock(cur.lock)
		cur = next
	}
	ctx.Unlock(cur.lock)
}

func (ll *linkedList) Check() error {
	count, prev := 0, -2
	for n := ll.head.next; n != nil; n = n.next {
		if n.key <= prev {
			return fmt.Errorf("linkedlist: order violation %d after %d", n.key, prev)
		}
		prev = n.key
		count++
	}
	if count != ll.nkeys {
		return fmt.Errorf("linkedlist: %d nodes, want %d", count, ll.nkeys)
	}
	return nil
}

// bstNode is a functional binary-tree node.
type bstNode struct {
	key         int
	addr        uint64
	lock        uint64
	left, right *bstNode
	leaf        bool
	dead        bool
}

// bstFG is the external fine-grained-locking BST of Siakavaras et al.
// (Table 6: 20K, 100% lookup): internal router nodes direct searches to
// leaves; lookups use lock coupling down the tree, so each core holds two
// locks concurrently — the paper's ST-overflow stress case (Figure 23).
type bstFG struct {
	root   *bstNode
	nkeys  int
	maxKey int
}

func buildExternal(keys []int, addrs, locks []uint64, lo, hi int, next *int) *bstNode {
	if lo == hi {
		n := &bstNode{key: keys[lo], addr: addrs[*next], lock: locks[*next], leaf: true}
		*next++
		return n
	}
	mid := (lo + hi) / 2
	n := &bstNode{key: keys[mid], addr: addrs[*next], lock: locks[*next]}
	*next++
	n.left = buildExternal(keys, addrs, locks, lo, mid, next)
	n.right = buildExternal(keys, addrs, locks, mid+1, hi, next)
	return n
}

func newBSTFG(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	keys := keysSorted(size, rng)
	// External tree: size leaves + size-1 routers; placed randomly (the
	// paper distributes BSTs randomly across units).
	total := 2*size - 1
	addrs := randomAlloc(m.AllocShared, total, m.Cfg.Units, rng)
	locks := randomAlloc(m.Alloc, total, m.Cfg.Units, rng)
	next := 0
	root := buildExternal(keys, addrs, locks, 0, size-1, &next)
	return &bstFG{root: root, nkeys: size, maxKey: keys[len(keys)-1]}
}

func (t *bstFG) Op(ctx *program.Ctx) {
	target := ctx.RNG.Intn(t.maxKey + 1)
	cur := t.root
	ctx.Lock(cur.lock)
	ctx.Read(cur.addr)
	for !cur.leaf {
		next := cur.left
		if target > cur.key {
			next = cur.right
		}
		ctx.Lock(next.lock)
		ctx.Read(next.addr)
		ctx.Unlock(cur.lock)
		cur = next
	}
	ctx.Unlock(cur.lock)
}

func (t *bstFG) Check() error {
	var walk func(n *bstNode, lo, hi int) (int, error)
	walk = func(n *bstNode, lo, hi int) (int, error) {
		if n == nil {
			return 0, nil
		}
		if n.key < lo || n.key > hi {
			return 0, fmt.Errorf("bst_fg: key %d outside [%d,%d]", n.key, lo, hi)
		}
		if n.leaf {
			return 1, nil
		}
		l, err := walk(n.left, lo, n.key)
		if err != nil {
			return 0, err
		}
		r, err := walk(n.right, n.key+1, hi)
		if err != nil {
			return 0, err
		}
		return l + r, nil
	}
	leaves, err := walk(t.root, -1, 1<<30)
	if err != nil {
		return err
	}
	if leaves != t.nkeys {
		return fmt.Errorf("bst_fg: %d leaves, want %d", leaves, t.nkeys)
	}
	return nil
}

// bstDrachsler is the logical-ordering internal BST of Drachsler et al.
// (Table 6: 10K, 100% deletion): searches are lock-free reads; a deletion
// locks only the victim and its parent briefly, so lock requests are a tiny
// fraction of total memory requests and all schemes converge (Figure 11).
type bstDrachsler struct {
	root    *bstNode
	nkeys   int
	maxKey  int
	deleted int
}

func buildInternal(keys []int, addrs, locks []uint64, lo, hi int, next *int) *bstNode {
	if lo > hi {
		return nil
	}
	mid := (lo + hi) / 2
	n := &bstNode{key: keys[mid], addr: addrs[*next], lock: locks[*next]}
	*next++
	n.left = buildInternal(keys, addrs, locks, lo, mid-1, next)
	n.right = buildInternal(keys, addrs, locks, mid+1, hi, next)
	return n
}

func newBSTDrachsler(m *arch.Machine, size int, rng *sim.RNG) dataStructure {
	keys := keysSorted(size, rng)
	addrs := randomAlloc(m.AllocShared, size, m.Cfg.Units, rng)
	locks := randomAlloc(m.Alloc, size, m.Cfg.Units, rng)
	next := 0
	root := buildInternal(keys, addrs, locks, 0, size-1, &next)
	return &bstDrachsler{root: root, nkeys: size, maxKey: keys[len(keys)-1]}
}

func (t *bstDrachsler) Op(ctx *program.Ctx) {
	target := ctx.RNG.Intn(t.maxKey + 1)
	// Lock-free search (reads only) with parent tracking.
	var parent *bstNode
	cur := t.root
	var found *bstNode
	for cur != nil {
		ctx.Read(cur.addr)
		if cur.key == target {
			found = cur
			break
		}
		parent = cur
		if target < cur.key {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	if found == nil || found.dead {
		return
	}
	// Logical deletion: lock victim (and parent) in address order, mark.
	locks := []uint64{found.lock}
	if parent != nil && parent.lock != found.lock {
		locks = append(locks, parent.lock)
	}
	if len(locks) == 2 && locks[0] > locks[1] {
		locks[0], locks[1] = locks[1], locks[0]
	}
	for _, l := range locks {
		ctx.Lock(l)
	}
	if !found.dead {
		found.dead = true
		t.deleted++
		ctx.Write(found.addr)
	}
	for i := len(locks) - 1; i >= 0; i-- {
		ctx.Unlock(locks[i])
	}
}

func (t *bstDrachsler) Check() error {
	alive := 0
	prev := -2
	var walk func(n *bstNode) error
	walk = func(n *bstNode) error {
		if n == nil {
			return nil
		}
		if err := walk(n.left); err != nil {
			return err
		}
		if n.key <= prev {
			return fmt.Errorf("bst_drachsler: order violation %d after %d", n.key, prev)
		}
		prev = n.key
		if !n.dead {
			alive++
		}
		return walk(n.right)
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if alive+t.deleted != t.nkeys {
		return fmt.Errorf("bst_drachsler: %d alive + %d deleted != %d", alive, t.deleted, t.nkeys)
	}
	return nil
}
