package cache

import (
	"slices"
	"testing"
	"testing/quick"
)

// resident reports whether the line holding addr is in c, touching nothing.
func resident(c *Cache, addr uint64) bool {
	_, _, _, i := c.lookup(addr)
	return i >= 0
}

func TestHitAfterMiss(t *testing.T) {
	c := New(DefaultConfig())
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if r := c.Access(0x103F, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	// Next line.
	if r := c.Access(0x1040, false); r.Hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := DefaultConfig() // 2-way, 128 sets
	c := New(cfg)
	nsets := uint64(cfg.SizeBytes / (LineSize * cfg.Ways))
	a := uint64(0)
	b := a + nsets*LineSize   // same set, different tag
	d := a + 2*nsets*LineSize // same set, third tag
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b
	if !resident(c, a) || !resident(c, d) {
		t.Fatal("MRU or new line evicted")
	}
	if resident(c, b) {
		t.Fatal("LRU line survived")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	nsets := uint64(cfg.SizeBytes / (LineSize * cfg.Ways))
	a := uint64(0x40)
	c.Access(a, true) // dirty
	c.Access(a+nsets*LineSize, false)
	r := c.Access(a+2*nsets*LineSize, false) // evicts a (LRU, dirty)
	if !r.Writeback {
		t.Fatal("dirty eviction did not report writeback")
	}
	if r.VictimAddr/LineSize != a/LineSize {
		t.Fatalf("victim %#x, want line of %#x", r.VictimAddr, a)
	}
	if c.Stats.Writebacks.Value() != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks.Value())
	}
}

// Property: addr's line is resident immediately after any access, and stats
// counters match accesses.
func TestAccessContainsProperty(t *testing.T) {
	c := New(DefaultConfig())
	n := 0
	if err := quick.Check(func(addr uint64, write bool) bool {
		addr %= 1 << 30
		c.Access(addr, write)
		n++
		ok := resident(c, addr)
		total := c.Stats.Hits.Value() + c.Stats.Misses.Value()
		return ok && total == uint64(n)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never holds more lines than its capacity.
func TestCapacityProperty(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Ways: 2, HitCycles: 1}
	c := New(cfg)
	capacity := cfg.SizeBytes / LineSize
	if err := quick.Check(func(addrs []uint64) bool {
		held := map[uint64]bool{}
		for _, a := range addrs {
			a %= 1 << 20
			c.Access(a, false)
		}
		// Count resident lines by probing all touched lines.
		for _, a := range addrs {
			a %= 1 << 20
			if resident(c, a) {
				held[a/LineSize] = true
			}
		}
		return len(held) <= capacity
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	c.Access(0, false) // miss: 47 pJ
	c.Access(0, false) // hit: 23 pJ
	want := cfg.MissEnergyPJ + cfg.HitEnergyPJ
	if got := c.EnergyPJ(); got != want {
		t.Fatalf("energy = %f, want %f", got, want)
	}
}

// Property: AccessIfHit followed, on a miss, by Access leaves the cache in
// exactly the state Access alone does (ways, recency order and statistics), and
// a miss through AccessIfHit changes nothing.
func TestAccessIfHitMatchesAccess(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Ways: 2, HitCycles: 4}
	ref, got := New(cfg), New(cfg)
	if err := quick.Check(func(addr uint64, write bool) bool {
		addr %= 4 * uint64(cfg.SizeBytes)
		want := ref.Access(addr, write)
		before := append([]way(nil), got.ways...)
		stats := got.Stats
		lat, ok := got.AccessIfHit(addr, write)
		if ok != want.Hit {
			return false
		}
		if ok {
			if lat != cfg.HitCycles {
				return false
			}
		} else {
			if got.Stats != stats || !slices.Equal(got.ways, before) {
				return false
			}
			if got.Access(addr, write) != want {
				return false
			}
		}
		return got.Stats == ref.Stats && slices.Equal(got.ways, ref.ways)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// tickLRU is a reference L1: every way stamps the access count of its last
// use, and a miss evicts the valid way with the oldest stamp unless the set
// has an empty way.
type tickLRU struct {
	sets  [][]tickWay
	ticks uint64
}

type tickWay struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newTickLRU(cfg Config) *tickLRU {
	r := &tickLRU{sets: make([][]tickWay, cfg.SizeBytes/(LineSize*cfg.Ways))}
	for i := range r.sets {
		r.sets[i] = make([]tickWay, cfg.Ways)
	}
	return r
}

func (r *tickLRU) access(addr uint64, write bool) Result {
	r.ticks++
	nsets := uint64(len(r.sets))
	line := addr / LineSize
	set, tag := line%nsets, line/nsets
	ws := r.sets[set]
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			ws[i].lru = r.ticks
			ws[i].dirty = ws[i].dirty || write
			return Result{Hit: true}
		}
	}
	victim := 0
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	var res Result
	if ws[victim].valid && ws[victim].dirty {
		res.Writeback, res.VictimAddr = true, (ws[victim].tag*nsets+set)*LineSize
	}
	ws[victim] = tickWay{tag: tag, valid: true, dirty: write, lru: r.ticks}
	return res
}

// Property: the recency-ordered sets give the same hits, writebacks, victim
// addresses and dirty-line counts as per-way LRU stamps, across geometries
// from direct-mapped to fully associative.
func TestRecencyOrderMatchesTickLRU(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 8 * LineSize, Ways: 1},
		{SizeBytes: 16 * LineSize, Ways: 2},
		{SizeBytes: 16 * LineSize, Ways: 4},
		{SizeBytes: 8 * LineSize, Ways: 8},
	} {
		c, ref := New(cfg), newTickLRU(cfg)
		lines := 3 * uint64(cfg.SizeBytes/LineSize)
		for step := range 20000 {
			x := uint64(step)*0x9E3779B97F4A7C15 ^ uint64(step)>>7
			x ^= x >> 29
			x *= 0xBF58476D1CE4E5B9
			addr, write := (x>>8)%lines*LineSize+(x&(LineSize-1)), x>>63 == 1
			want := ref.access(addr, write)
			want.LatencyCycles = cfg.HitCycles
			if got := c.Access(addr, write); got != want {
				t.Fatalf("%d-way, step %d, addr %#x: got %+v, want %+v", cfg.Ways, step, addr, got, want)
			}
		}
		dirty := 0
		for _, ws := range ref.sets {
			for _, w := range ws {
				if w.valid && w.dirty {
					dirty++
				}
			}
		}
		got := 0
		for _, w := range c.ways {
			if w&wayDirty != 0 {
				got++
			}
		}
		if got != dirty {
			t.Fatalf("%d-way: %d dirty lines, want %d", cfg.Ways, got, dirty)
		}
	}
}

func TestNewRejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 3-set geometry")
		}
	}()
	New(Config{SizeBytes: 3 * 2 * LineSize, Ways: 2})
}

// BenchmarkCacheAccess times what a core's cacheable access costs the L1:
// AccessIfHit, then Access on a miss (program.Ctx.access). One figures-quick
// pass makes 1,619,608 cacheable accesses: 1,539,788 hits, 79,820 misses and
// 232 stores. So the benchmark makes loads, uniform over F lines: under LRU
// they hit C/F of the time for an L1 of C lines, and F = C/ratio gives
// figures-quick's hit ratio. One op is one access; hits/op reports the ratio.
func BenchmarkCacheAccess(b *testing.B) {
	const hitRatio = 1539788.0 / 1619608
	cfg := DefaultConfig()
	c := New(cfg)
	lines := uint64(float64(cfg.SizeBytes/LineSize)/hitRatio + 0.5)
	addrs := make([]uint64, 1<<14)
	x := uint64(1)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = (x>>33)%lines*LineSize + x>>58
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if _, ok := c.AccessIfHit(a, false); !ok {
			c.Access(a, false)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Stats.Hits.Value())/float64(b.N), "hits/op")
}
