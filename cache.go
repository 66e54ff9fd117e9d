package syncron

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"syncron/internal/runcache"
)

// SpecKeyVersion is the version of the canonical RunSpec encoding behind
// SpecKey. Every key carries it as a "v<N>-" prefix, so entries written under
// an older encoding are never returned — they simply miss.
//
// Bump it whenever the meaning of a cached result changes for an unchanged
// RunSpec value: a field added to (or removed from) RunSpec, Config, or
// WorkloadParams, a change to the canonical field encoding below, or an
// intentional simulator-behavior change that should orphan all caches at
// once. Routine simulator changes are instead invalidated by using a fresh
// cache directory per code version (CI keys its directories on the source
// hash); see ARCHITECTURE.md "Caching".
//
// History: v2 added Config.MemModel (the DRAM timing-model axis); v3 retired
// the split-access event order, so every workload models its accesses inline;
// v4 runs Compute and L1 hits inside the core's coroutine, so program code
// after a Compute runs at the previous operation's completion (sssp moved);
// v5 counts each overflowed request once, so OverflowedFraction is a share
// of requests at most 1 (it counted message hops before).
const SpecKeyVersion = 5

// specKeyRecord is the canonical, versioned encoding of one RunSpec. Every
// semantic field of RunSpec/Config/WorkloadParams appears explicitly, always
// serialized (no omitempty), in fixed declaration order, so two specs encode
// identically iff every field matches. TestSpecKeyCoversEveryField pins the
// field counts of the source structs against this record.
type specKeyRecord struct {
	V        int    `json:"v"`
	Workload string `json:"workload"`

	Scheme            string `json:"scheme"`
	Units             int    `json:"units"`
	CoresPerUnit      int    `json:"cores_per_unit"`
	Memory            string `json:"memory"`
	MemModel          string `json:"mem_model"`
	Topology          string `json:"topology"`
	LinkLatencyPS     int64  `json:"link_latency_ps"`
	STEntries         int    `json:"st_entries"`
	Overflow          int    `json:"overflow"`
	FairnessThreshold int    `json:"fairness_threshold"`
	SEServiceCycles   int64  `json:"se_service_cycles"`
	Seed              uint64 `json:"seed"`

	Scale      keyFloat `json:"scale"`
	OpsPerCore int      `json:"ops_per_core"`
	Size       int      `json:"size"`
	Interval   int64    `json:"interval"`
	Rounds     int      `json:"rounds"`
	Metis      bool     `json:"metis"`
}

// keyFloat encodes a finite value exactly as encoding/json encodes a
// float64, and NaN, +Inf and -Inf, which encoding/json rejects, as the
// strings "NaN", "+Inf" and "-Inf". So every spec has a key, and the keys of
// finite specs are those of a plain float64 field.
type keyFloat float64

func (f keyFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(v)
}

// canonicalSpec serializes the spec's canonical encoding.
func canonicalSpec(spec RunSpec) []byte {
	cfg, p := spec.Config, spec.Params
	rec := specKeyRecord{
		V:        SpecKeyVersion,
		Workload: spec.Workload,

		Scheme:            string(cfg.Scheme),
		Units:             cfg.Units,
		CoresPerUnit:      cfg.CoresPerUnit,
		Memory:            cfg.Memory.String(),
		MemModel:          string(cfg.MemModel),
		Topology:          string(cfg.Topology),
		LinkLatencyPS:     int64(cfg.LinkLatency),
		STEntries:         cfg.STEntries,
		Overflow:          int(cfg.Overflow),
		FairnessThreshold: cfg.FairnessThreshold,
		SEServiceCycles:   cfg.SEServiceCycles,
		Seed:              cfg.Seed,

		Scale:      keyFloat(p.Scale),
		OpsPerCore: p.OpsPerCore,
		Size:       p.Size,
		Interval:   p.Interval,
		Rounds:     p.Rounds,
		Metis:      p.Metis,
	}
	enc, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("syncron: marshaling spec key record: %v", err)) // no field can fail
	}
	return enc
}

// SpecKey returns the stable content hash of a spec — "v<version>-<sha256>"
// of its canonical encoding. Keys identify the spec as REQUESTED: hash the
// spec after seed resolution (ResolveSeeds, or Sweep.Run's internal
// resolution), because a zero Config.Seed and its resolved value are
// different requests with different results.
func SpecKey(spec RunSpec) string {
	return fmt.Sprintf("v%d-%x", SpecKeyVersion, sha256.Sum256(canonicalSpec(spec)))
}

// ResultCache caches serialized RunResults under their SpecKey. Implementations
// must be safe for concurrent use. The sweep engine treats the cache as
// best-effort: a failed Put is ignored (it only costs a future miss), and any
// Get payload that does not decode as a RunResult is treated as a miss.
type ResultCache interface {
	// Get returns the payload stored under key, or (nil, false) on a miss.
	Get(key string) ([]byte, bool)
	// Put stores payload under key, replacing any existing entry.
	Put(key string, payload []byte) error
}

// CacheDir is the filesystem ResultCache: one JSON envelope per key in a flat
// directory, written atomically (temp file + rename); corrupt or
// stale-version entries read as misses. See internal/runcache.
type CacheDir = runcache.Dir

// CacheStats is a snapshot of a CacheDir's traffic counters.
type CacheStats = runcache.Stats

// DirCache opens (creating if needed) a filesystem result cache rooted at
// dir. The returned cache can be shared by any number of concurrent sweeps.
func DirCache(dir string) (*CacheDir, error) { return runcache.Open(dir) }

// encodeCachedResult serializes a result for storage. GridIndex is positional
// bookkeeping of one particular sweep, not part of the result, so it is
// stripped; the same cached run can sit at different positions in different
// grids.
func encodeCachedResult(res RunResult) ([]byte, error) {
	res.GridIndex = 0
	return json.Marshal(res)
}

// DecodeCachedResult deserializes a ResultCache payload back into the
// RunResult the sweep engine stored (see CacheResult for the inverse). The
// sweep engine and serving layers that answer cache hits themselves (the
// serve daemon resolves submissions at admission time) both decode with it.
// Failures mean the payload should be treated as a miss.
func DecodeCachedResult(payload []byte) (RunResult, error) {
	var res RunResult
	if err := json.Unmarshal(payload, &res); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// CacheResult stores one sweep result into cache under the result's own
// recorded Key, so results produced elsewhere (perfbench's warm-up pass, or
// a saved sweep JSON) seed a cache that `figures -from DIR` can render from
// without simulating. The result must carry a Key (i.e. come from SpecRunner.Run,
// not a bare Execute) and must not be a failure: failed runs are never
// cached.
func CacheResult(cache ResultCache, res RunResult) error {
	if res.Err != "" {
		return fmt.Errorf("syncron: refusing to cache failed run %s under %s: %s",
			res.Spec.Workload, res.Spec.Config.Scheme, res.Err)
	}
	if res.Key == "" {
		return fmt.Errorf("syncron: result for %s under %s has no spec key (produced by a bare Execute?)",
			res.Spec.Workload, res.Spec.Config.Scheme)
	}
	payload, err := encodeCachedResult(res)
	if err != nil {
		return err
	}
	return cache.Put(res.Key, payload)
}
