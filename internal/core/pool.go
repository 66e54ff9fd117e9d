package core

import "syncron/internal/sim"

// Pooled protocol continuations.
//
// A fresh closure per message hop would make internal/core the dominant
// allocation source of the whole simulator, so continuations are pooled:
// each in-flight message draws a callOp from a per-Coordinator freelist,
// carries its operands in plain fields, and is prebound to a reusable
// func(sim.Time), so scheduling one allocates nothing in steady state. An op
// frees itself before dispatching, which lets the dispatched handler
// immediately draw (and reuse) the op it just ran from.
//
// Pools are per Coordinator and the engine runs one event at a time, so no
// locking is needed.

// opKind selects which protocol step a pooled callOp performs when it fires.
type opKind uint8

const (
	opDeliver opKind = iota // a message reaches nd: process it, then run done
	opLockEnqueue
	opMasterCoreAcquire
	opLockReleaseAt
	opMasterCoreRelease
	opMasterNodeAcquire
	opMasterNodeRelease
	opGrantNodeArrived
	opRelayGrant
	opBarrierWithinLocal
	opBarrierAcrossLocal
	opBarrierCoreArrive
	opBarrierNodeArrive
	opBarrierDepartLocal
	opMasterSemWait
	opMasterSemPost
	opCondWaitFlat
	opCondWaitLocal
	opCondWaitReg
	opCondSignal
	opCondBroadcast
	opFetchAddApply
	opMemExit
	opForwardMaster
)

// callOp is a pooled protocol continuation. Which fields are meaningful
// depends on kind. Freeing an op clears nd and done; the other fields keep
// their previous values, so every draw sets the ones its kind reads. info
// mirrors arch.SyncReq's MessageInfo operand: the barrier participant count,
// semaphore initial value, fetch-add delta, or a condition variable's lock
// address. flag is a node release's requeue bit, and the overflow bit
// of a per-core acquire or barrier arrival: set only when an SE that
// overflowed redirects the request to the master.
type callOp struct {
	c     *Coordinator
	kind  opKind
	kind2 opKind // inner kind run at the master, for opForwardMaster
	core  int
	addr  uint64
	info  uint64
	flag  bool
	nd    *node
	done  func(sim.Time)
	fn    func(sim.Time) // prebound adapter, allocated once per pooled object
	next  *callOp
}

// op draws a continuation from the pool. Callers fill in the operand fields
// and hand o.fn to the transport as the `then` callback.
func (c *Coordinator) op(kind opKind) *callOp {
	o := c.freeOps
	if o == nil {
		o = &callOp{c: c}
		o.fn = func(t sim.Time) { o.run(t) }
	} else {
		c.freeOps = o.next
	}
	o.kind = kind
	return o
}

func (o *callOp) run(t sim.Time) {
	c := o.c
	v := *o // copy the operands: the dispatch below may reuse this op
	o.nd, o.done = nil, nil
	o.next = c.freeOps
	c.freeOps = o
	switch v.kind {
	case opDeliver:
		c.m.Engine.Schedule(v.nd.process(t, v.addr), v.done)
	case opLockEnqueue:
		c.lockEnqueueAt(t, v.nd, v.core, v.addr, v.done)
	case opMasterCoreAcquire:
		c.masterLockCoreAcquire(t, v.core, v.addr, v.done, v.nd, v.flag)
	case opLockReleaseAt:
		c.lockReleaseAt(t, v.nd, v.addr)
	case opMasterCoreRelease:
		c.masterLockCoreRelease(t, v.addr)
	case opMasterNodeAcquire:
		c.masterLockNodeAcquire(t, v.nd, v.addr)
	case opMasterNodeRelease:
		c.masterLockNodeRelease(t, v.nd, v.addr, v.flag)
	case opGrantNodeArrived:
		c.grantLockNodeArrived(t, v.nd, v.addr)
	case opRelayGrant:
		c.nodeToCore(t, v.nd, v.core, v.done)
	case opBarrierWithinLocal:
		c.barrierWithinLocal(t, v.nd, v.core, v.addr, int(v.info), v.done)
	case opBarrierAcrossLocal:
		c.barrierAcrossLocal(t, v.nd, v.core, v.addr, int(v.info), v.done)
	case opBarrierCoreArrive:
		c.masterBarrierCoreArrive(t, v.addr, int(v.info), holderRef{core: v.core, done: v.done, relay: v.nd}, v.flag)
	case opBarrierNodeArrive:
		c.masterBarrierNodeArrive(t, v.addr, int(v.info), v.nd)
	case opBarrierDepartLocal:
		c.barrierDepartLocal(t, v.nd, v.addr)
	case opMasterSemWait:
		c.masterSemWait(t, v.addr, int(v.info), holderRef{core: v.core, done: v.done, relay: v.nd})
	case opMasterSemPost:
		c.masterSemPost(t, v.addr)
	case opCondWaitFlat:
		c.condWaitAtMaster(t, v.core, v.addr, v.info, v.done)
	case opCondWaitLocal:
		c.condWaitAtLocal(t, v.nd, v.core, v.addr, v.info, v.done)
	case opCondWaitReg:
		c.condWaitRegister(t, v.core, v.addr, v.info, v.done, v.nd)
	case opCondSignal:
		c.condSignalAtMaster(t, v.addr)
	case opCondBroadcast:
		c.condBroadcastAtMaster(t, v.addr)
	case opFetchAddApply:
		c.fetchAddApply(t, v.addr, v.info, holderRef{core: v.core, done: v.done, relay: v.nd})
	case opMemExit:
		v.nd.memExit(v.addr)
	case opForwardMaster:
		// Hierarchical second hop: forward from the local SE (v.nd) to the
		// master and run the inner kind there, with v.nd as the relay.
		inner := c.op(v.kind2)
		inner.core, inner.addr, inner.info, inner.nd, inner.done = v.core, v.addr, v.info, v.nd, v.done
		c.nodeToNode(t, v.nd, c.masterNode(v.addr), v.addr, inner.fn)
	}
}
