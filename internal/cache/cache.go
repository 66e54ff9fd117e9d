// Package cache models the private L1 data cache of an NDP core: 16 KB,
// 2-way set-associative, 64 B lines, LRU replacement, 4-cycle hits (Table 5).
//
// Coherence is software-assisted (paper §2.1): only thread-private and
// shared read-only data may be cached; shared read-write data bypasses the
// cache entirely. The cacheability decision is made by the caller (the
// machine model knows the sharing class of each allocation).
package cache

import "syncron/internal/sim"

// LineSize is the cache line size in bytes.
const LineSize = 64

// Config describes an L1 cache geometry.
type Config struct {
	SizeBytes int
	Ways      int
	HitCycles int64 // latency of a hit in core cycles

	// Energy per access (Table 5: 23 pJ hit, 47 pJ miss).
	HitEnergyPJ  float64
	MissEnergyPJ float64
}

// DefaultConfig is the paper's L1D: 16 KB, 2-way, 4-cycle hit.
func DefaultConfig() Config {
	return Config{SizeBytes: 16 * 1024, Ways: 2, HitCycles: 4,
		HitEnergyPJ: 23, MissEnergyPJ: 47}
}

// Stats counts cache activity.
type Stats struct {
	Hits       sim.Counter
	Misses     sim.Counter
	Writebacks sim.Counter
	Bypasses   sim.Counter // uncacheable accesses
}

// EnergyPJ returns total cache energy under cfg.
func (s *Stats) EnergyPJ(cfg Config) float64 {
	return float64(s.Hits.Value())*cfg.HitEnergyPJ + float64(s.Misses.Value())*cfg.MissEnergyPJ
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a single L1 cache instance.
type Cache struct {
	cfg   Config
	sets  [][]way
	nsets uint64
	ticks uint64
	Stats Stats
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	nsets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if nsets <= 0 {
		nsets = 1
	}
	sets := make([][]way, nsets)
	backing := make([]way, nsets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{cfg: cfg, sets: sets, nsets: uint64(nsets)}
}

// Result reports the outcome of a cache access.
type Result struct {
	Hit           bool
	Writeback     bool   // a dirty victim must be written back
	VictimAddr    uint64 // line address of the victim (valid if Writeback)
	LatencyCycles int64  // core cycles consumed inside the cache
}

// Access performs a load (write=false) or store (write=true) of the line
// containing addr, updating LRU and dirty state. On a miss the line is
// allocated (write-allocate) and the victim is reported.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.ticks++
	line := addr / LineSize
	set := line % c.nsets
	tag := line / c.nsets
	ws := c.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			ws[i].lru = c.ticks
			if write {
				ws[i].dirty = true
			}
			c.Stats.Hits.Inc()
			return Result{Hit: true, LatencyCycles: c.cfg.HitCycles}
		}
	}
	// Miss: pick the LRU way (or an invalid one).
	victim := 0
	for i := 1; i < len(ws); i++ {
		if !ws[i].valid {
			victim = i
			break
		}
		if ws[victim].valid && ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	res := Result{LatencyCycles: c.cfg.HitCycles}
	if ws[victim].valid && ws[victim].dirty {
		res.Writeback = true
		res.VictimAddr = (ws[victim].tag*c.nsets + set) * LineSize
		c.Stats.Writebacks.Inc()
	}
	ws[victim] = way{tag: tag, valid: true, dirty: write, lru: c.ticks}
	c.Stats.Misses.Inc()
	return res
}

// Bypass records an uncacheable access for statistics.
func (c *Cache) Bypass() { c.Stats.Bypasses.Inc() }

// Contains reports whether the line holding addr is resident, i.e. whether
// an Access to it would hit. It touches no LRU, dirty or statistics state.
func (c *Cache) Contains(addr uint64) bool {
	line := addr / LineSize
	set := line % c.nsets
	tag := line / c.nsets
	for _, w := range c.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache, returning the number of dirty lines
// dropped (the model does not simulate flush traffic; used between phases).
func (c *Cache) Flush() int {
	dirty := 0
	for _, ws := range c.sets {
		for i := range ws {
			if ws[i].valid && ws[i].dirty {
				dirty++
			}
			ws[i] = way{}
		}
	}
	return dirty
}
