// Package cache models the private L1 data cache of an NDP core: 16 KB,
// 2-way set-associative, 64 B lines, LRU replacement, 4-cycle hits (Table 5).
//
// Coherence is software-assisted (paper §2.1): only thread-private and
// shared read-only data may be cached; shared read-write data bypasses the
// cache entirely. The cacheability decision is made by the caller (the
// machine model knows the sharing class of each allocation).
package cache

import (
	"fmt"
	"math/bits"

	"syncron/internal/sim"
)

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

// A way is one line slot in a single word: the tag shifted left by two, a
// dirty bit and a valid bit. The zero way is empty. Each set keeps its ways
// in recency order, most recently used first, so empty ways sit behind every
// resident line and the last way is the miss victim: an empty slot if the
// set has one, else the least recently used line.
type way uint64

const (
	wayValid way = 1 << iota
	wayDirty
	wayFlags = 2 // bits below the tag
)

// Cache is a single L1 cache instance. Its ways live in one flat slice:
// set s occupies ways[s*Ways : (s+1)*Ways].
type Cache struct {
	cfg      Config
	ways     []way
	setMask  uint64 // nsets-1; nsets is a power of two
	setShift uint   // log2(nsets)
	Stats    Stats
}

// New builds a cache from cfg. It panics if cfg's set count is not a power
// of two, since the set index is taken from the line address's low bits.
func New(cfg Config) *Cache {
	nsets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if nsets <= 0 {
		nsets = 1
	}
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: %d B %d-way has %d sets, not a power of two", cfg.SizeBytes, cfg.Ways, nsets))
	}
	return &Cache{cfg: cfg, ways: make([]way, nsets*cfg.Ways),
		setMask: uint64(nsets - 1), setShift: uint(bits.TrailingZeros(uint(nsets)))}
}

// Result reports the outcome of a cache access.
type Result struct {
	Hit           bool
	Writeback     bool   // a dirty victim must be written back
	VictimAddr    uint64 // line address of the victim (valid if Writeback)
	LatencyCycles int64  // core cycles consumed inside the cache
}

// lookup returns the ways of addr's set, the set index, addr's line as a
// clean valid way, and the index of the way holding that line, or -1 if it
// is not resident.
func (c *Cache) lookup(addr uint64) (ws []way, set uint64, line way, hit int) {
	l := addr / LineSize
	set = l & c.setMask
	line = way(l>>c.setShift)<<wayFlags | wayValid
	n := uint64(c.cfg.Ways)
	ws = c.ways[set*n : (set+1)*n]
	for i, w := range ws {
		if w&^wayDirty == line {
			return ws, set, line, i
		}
	}
	return ws, set, line, -1
}

// toFront moves ws[i] to the front of its set as w, shifting the more
// recently used ways back by one.
func toFront(ws []way, i int, w way) {
	for ; i > 0; i-- {
		ws[i] = ws[i-1]
	}
	ws[0] = w
}

// hit applies a hit on ws[i]: recency order, dirty state and the hit count.
func (c *Cache) hit(ws []way, i int, write bool) {
	w := ws[i]
	if write {
		w |= wayDirty
	}
	toFront(ws, i, w)
	c.Stats.Hits.Inc()
}

// Access performs a load (write=false) or store (write=true) of the line
// containing addr, updating LRU and dirty state. On a miss the line is
// allocated (write-allocate) and the victim is reported.
func (c *Cache) Access(addr uint64, write bool) Result {
	ws, set, line, i := c.lookup(addr)
	if i >= 0 {
		c.hit(ws, i, write)
		return Result{Hit: true, LatencyCycles: c.cfg.HitCycles}
	}
	res := Result{LatencyCycles: c.cfg.HitCycles}
	last := len(ws) - 1
	if victim := ws[last]; victim&wayDirty != 0 {
		res.Writeback = true
		res.VictimAddr = (uint64(victim>>wayFlags)<<c.setShift | set) * LineSize
		c.Stats.Writebacks.Inc()
	}
	if write {
		line |= wayDirty
	}
	toFront(ws, last, line)
	c.Stats.Misses.Inc()
	return res
}

// AccessIfHit performs Access(addr, write) if it would hit, updating LRU,
// dirty state and the hit count exactly as Access does, and returns the hit
// latency in core cycles. On a miss it changes nothing and returns
// ok=false; the caller then takes the miss path through Access.
func (c *Cache) AccessIfHit(addr uint64, write bool) (latencyCycles int64, ok bool) {
	ws, _, _, i := c.lookup(addr)
	if i < 0 {
		return 0, false
	}
	c.hit(ws, i, write)
	return c.cfg.HitCycles, true
}

// EnergyPJ returns the cache's access energy so far: its hits and misses
// at the per-access energies of its Config.
func (c *Cache) EnergyPJ() float64 {
	return float64(c.Stats.Hits.Value())*c.cfg.HitEnergyPJ + float64(c.Stats.Misses.Value())*c.cfg.MissEnergyPJ
}

// Bypass records an uncacheable access for statistics.
func (c *Cache) Bypass() { c.Stats.Bypasses.Inc() }
