package arch

import "syncron/internal/sim"

// SyncOp enumerates the synchronization semantics of the paper's programming
// interface (Table 2). Acquire-type operations block the issuing core until
// granted (req_sync); release-type operations are asynchronous (req_async)
// but the simulator still reports their message injection cost.
type SyncOp int

const (
	OpLockAcquire SyncOp = iota
	OpLockRelease
	OpBarrierWithinUnit
	OpBarrierAcrossUnits
	OpSemWait
	OpSemPost
	OpCondWait
	OpCondSignal
	OpCondBroadcast
	OpFetchAdd // §4.4.1 RMW extension (SynCron only)
)

// String returns the API name of the operation.
func (o SyncOp) String() string {
	switch o {
	case OpLockAcquire:
		return "lock_acquire"
	case OpLockRelease:
		return "lock_release"
	case OpBarrierWithinUnit:
		return "barrier_wait_within_unit"
	case OpBarrierAcrossUnits:
		return "barrier_wait_across_units"
	case OpSemWait:
		return "sem_wait"
	case OpSemPost:
		return "sem_post"
	case OpCondWait:
		return "cond_wait"
	case OpCondSignal:
		return "cond_signal"
	case OpCondBroadcast:
		return "cond_broadcast"
	case OpFetchAdd:
		return "fetch_add"
	default:
		return "sync_op?"
	}
}

// Blocking reports whether the operation uses req_sync semantics (the core
// stalls until the response arrives).
func (o SyncOp) Blocking() bool {
	switch o {
	case OpLockAcquire, OpBarrierWithinUnit, OpBarrierAcrossUnits, OpSemWait,
		OpCondWait, OpFetchAdd:
		return true
	default:
		return false
	}
}

// SyncReq is one synchronization request from an NDP core.
type SyncReq struct {
	Op   SyncOp
	Addr uint64 // address of the synchronization variable (defines the Master SE)
	Info uint64 // MessageInfo: barrier participant count, semaphore initial value, RMW operand, or a condition variable's lock address
}

// Backend is a synchronization mechanism under test: SynCron, Central, Hier,
// or Ideal. A Backend receives requests from cores and calls done with the
// simulated time at which the core may proceed (for release-type operations,
// done is called when the message has been injected).
type Backend interface {
	// Attach wires the backend to the machine. Called once before the run.
	Attach(m *Machine)

	// Request submits req from global core id at time t. done must be called
	// exactly once, at a time >= t.
	Request(t sim.Time, core int, req SyncReq, done func(sim.Time))

	// ExtraCacheEnergyPJ reports cache energy consumed by server cores owned
	// by the backend (zero for hardware schemes).
	ExtraCacheEnergyPJ() float64
}

// BackendStats is implemented by backends that track ST-style occupancy (used
// by Table 7, Figure 19, Figure 22).
type BackendStats interface {
	// STOccupancy returns the max and time-weighted mean fraction [0,1] of ST
	// entries occupied, across all SEs.
	STOccupancy() (max, mean float64)
	// OverflowedFraction returns the share of sync requests serviced
	// outside the STs, counting each request once when it is issued: its
	// variable is in a software fallback, or its first stop or its master
	// services it via memory. It lies in [0, 1].
	OverflowedFraction() float64
}
