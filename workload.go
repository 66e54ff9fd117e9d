package syncron

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// WorkloadKind classifies a registered workload into one of the paper's four
// benchmark families. Figures and the analysis layer aggregate (geomean) over
// kinds, so every registered workload must report one.
type WorkloadKind string

// Workload kinds.
const (
	KindPrimitive     WorkloadKind = "primitive"
	KindDataStructure WorkloadKind = "data structure"
	KindGraph         WorkloadKind = "graph application"
	KindTimeSeries    WorkloadKind = "time series"
)

// Kinds returns the four workload families in the paper's evaluation order
// (Figure 10 microbenchmarks, Figure 11 data structures, Figure 12 graph
// applications and time series).
func Kinds() []WorkloadKind {
	return []WorkloadKind{KindPrimitive, KindDataStructure, KindGraph, KindTimeSeries}
}

// kindOrder ranks a kind by its Kinds position (unknown kinds sort last).
func kindOrder(k WorkloadKind) int {
	for i, known := range Kinds() {
		if k == known {
			return i
		}
	}
	return len(Kinds())
}

// WorkloadInfo is the registry metadata of one workload, used by discovery
// (syncron-sim list) and by the analysis layer to aggregate results.
type WorkloadInfo struct {
	// Name is the registry key (e.g. "pr.wk").
	Name string `json:"name"`
	// Kind is the benchmark family figures geomean over.
	Kind WorkloadKind `json:"kind"`
	// Family is a finer grouping within the kind: the application for graph
	// workloads ("pr.wk" → "pr"), "ts" for the time-series inputs, and the
	// workload's own name otherwise.
	Family string `json:"family"`
}

// familied is optionally implemented by workloads that belong to a named
// family finer than their Kind (e.g. the four inputs of one graph
// application).
type familied interface{ Family() string }

// infoOf derives the registry metadata for a workload.
func infoOf(w Workload) WorkloadInfo {
	info := WorkloadInfo{Name: w.Name(), Kind: w.Kind(), Family: w.Name()}
	if f, ok := w.(familied); ok {
		info.Family = f.Family()
	}
	return info
}

// WorkloadParams tunes a workload run. The zero value means "use the
// workload's defaults"; fields irrelevant to a workload kind are ignored.
type WorkloadParams struct {
	// Scale shrinks or grows the workload proportionally (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// OpsPerCore is the operation count per core (data structures; default 40).
	OpsPerCore int `json:"ops_per_core,omitempty"`
	// Size overrides the initial element count (data structures).
	Size int `json:"size,omitempty"`
	// Interval is the instruction count between synchronization points
	// (primitives; default 200).
	Interval int64 `json:"interval,omitempty"`
	// Rounds is the number of synchronization points per core (primitives;
	// default derived from Scale).
	Rounds int `json:"rounds,omitempty"`
	// Metis selects the METIS-like greedy graph partitioner instead of the
	// default hash partitioner (graph applications).
	Metis bool `json:"metis,omitempty"`
}

// validate returns an error naming the first negative field of p (zero
// means the workload's default) or a Scale that is infinite or NaN.
func (p WorkloadParams) validate() error {
	switch {
	case !(p.Scale >= 0) || math.IsInf(p.Scale, 1): // NaN fails every comparison
		return fmt.Errorf("syncron: WorkloadParams.Scale must be finite and not negative (got %v)", p.Scale)
	case p.OpsPerCore < 0:
		return negative("WorkloadParams.OpsPerCore", p.OpsPerCore)
	case p.Size < 0:
		return negative("WorkloadParams.Size", p.Size)
	case p.Interval < 0:
		return negative("WorkloadParams.Interval", p.Interval)
	case p.Rounds < 0:
		return negative("WorkloadParams.Rounds", p.Rounds)
	}
	return nil
}

// scale returns the effective scale factor.
func (p WorkloadParams) scale() float64 {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

// PreparedRun is a workload instantiated on a System, ready for System.Run.
type PreparedRun struct {
	// Ops is the number of logical operations the run will perform, used for
	// throughput reporting.
	Ops uint64
	// Check validates functional invariants after the run; nil means the
	// workload has no post-run check.
	Check func() error
}

// Workload is a benchmark that can be instantiated on any System. Register
// implementations with RegisterWorkload to make them reachable by name from
// the Sweep API and the syncron-sim command.
type Workload interface {
	// Name is the unique registry key (e.g. "stack", "lock", "pr.wk").
	Name() string
	// Kind classifies the workload for display.
	Kind() WorkloadKind
	// Prepare registers the workload's programs on sys.
	Prepare(sys *System, p WorkloadParams) (*PreparedRun, error)
}

var (
	workloadMu  sync.RWMutex
	workloadReg = map[string]Workload{}
)

// RegisterWorkload adds w to the public workload registry. It panics if a
// workload with the same name is already registered.
func RegisterWorkload(w Workload) {
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if _, dup := workloadReg[w.Name()]; dup {
		panic(fmt.Sprintf("syncron: duplicate workload %q", w.Name()))
	}
	workloadReg[w.Name()] = w
}

// LookupWorkload returns the registered workload with the given name.
func LookupWorkload(name string) (Workload, bool) {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	w, ok := workloadReg[name]
	return w, ok
}

// WorkloadNames returns every registered workload name in sorted order.
func WorkloadNames() []string {
	workloadMu.RLock()
	defer workloadMu.RUnlock()
	names := make([]string, 0, len(workloadReg))
	for name := range workloadReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WorkloadNamesOfKind returns the registered names of one kind, sorted.
func WorkloadNamesOfKind(kind WorkloadKind) []string {
	var names []string
	workloadMu.RLock()
	for name, w := range workloadReg {
		if w.Kind() == kind {
			names = append(names, name)
		}
	}
	workloadMu.RUnlock()
	sort.Strings(names)
	return names
}

// LookupInfo returns the registry metadata of one workload.
func LookupInfo(name string) (WorkloadInfo, bool) {
	w, ok := LookupWorkload(name)
	if !ok {
		return WorkloadInfo{}, false
	}
	return infoOf(w), true
}
