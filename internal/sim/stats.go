package sim

// Counter is a monotonically increasing event counter.
type Counter struct{ n uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge tracks a time-weighted running value, e.g. occupancy of a table. The
// average is weighted by how long each value was held.
type Gauge struct {
	value    float64
	max      float64
	lastAt   Time
	weighted float64
	spanned  Time
}

// Set records a new value at time t.
func (g *Gauge) Set(t Time, v float64) {
	if t > g.lastAt {
		g.weighted += g.value * float64(t-g.lastAt)
		g.spanned += t - g.lastAt
	}
	g.lastAt = t
	g.value = v
	if v > g.max {
		g.max = v
	}
}

// Max returns the maximum value observed.
func (g *Gauge) Max() float64 { return g.max }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.value }

// Mean returns the time-weighted mean up to the last Set. Before any time has
// elapsed it returns the current value.
func (g *Gauge) Mean() float64 {
	if g.spanned == 0 {
		return g.value
	}
	return g.weighted / float64(g.spanned)
}
