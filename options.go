package syncron

// Option configures a System under construction. Options are applied in
// order, so later options override earlier ones.
//
// A Config value is itself an Option (its non-zero fields are applied), which
// keeps the original Config-based construction working unchanged:
//
//	syncron.New(syncron.Config{Scheme: syncron.SchemeCentral, Units: 2})
//
// is equivalent to
//
//	syncron.New(syncron.WithScheme(syncron.SchemeCentral), syncron.WithUnits(2))
type Option interface {
	apply(*Config)
}

// optionFunc adapts a plain function to the Option interface.
type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// apply merges the non-zero fields of cfg, making Config usable as an Option.
func (cfg Config) apply(c *Config) {
	if cfg.Scheme != "" {
		c.Scheme = cfg.Scheme
	}
	if cfg.Units != 0 {
		c.Units = cfg.Units
	}
	if cfg.CoresPerUnit != 0 {
		c.CoresPerUnit = cfg.CoresPerUnit
	}
	if cfg.Memory != HBM {
		c.Memory = cfg.Memory
	}
	if cfg.Topology != "" {
		c.Topology = cfg.Topology
	}
	if cfg.MemModel != "" {
		c.MemModel = cfg.MemModel
	}
	if cfg.LinkLatency != 0 {
		c.LinkLatency = cfg.LinkLatency
	}
	if cfg.STEntries != 0 {
		c.STEntries = cfg.STEntries
	}
	if cfg.Overflow != OverflowIntegrated {
		c.Overflow = cfg.Overflow
	}
	if cfg.FairnessThreshold != 0 {
		c.FairnessThreshold = cfg.FairnessThreshold
	}
	if cfg.SEServiceCycles != 0 {
		c.SEServiceCycles = cfg.SEServiceCycles
	}
	if cfg.Seed != 0 {
		c.Seed = cfg.Seed
	}
	if cfg.Tracer != nil {
		c.Tracer = cfg.Tracer
	}
}

// WithScheme selects the synchronization mechanism.
func WithScheme(s Scheme) Option { return optionFunc(func(c *Config) { c.Scheme = s }) }

// WithUnits sets the number of NDP units.
func WithUnits(n int) Option { return optionFunc(func(c *Config) { c.Units = n }) }

// WithCoresPerUnit sets the number of client NDP cores per unit.
func WithCoresPerUnit(n int) Option { return optionFunc(func(c *Config) { c.CoresPerUnit = n }) }

// WithMemory selects the memory technology (HBM, HMC, DDR4).
func WithMemory(t MemoryTech) Option { return optionFunc(func(c *Config) { c.Memory = t }) }

// WithTopology selects the inter-unit interconnect topology.
func WithTopology(t Topology) Option { return optionFunc(func(c *Config) { c.Topology = t }) }

// WithMemModel selects the DRAM timing model (MemModelFlat, MemModelBank).
func WithMemModel(m MemModel) Option { return optionFunc(func(c *Config) { c.MemModel = m }) }

// WithLinkLatency overrides the inter-unit transfer latency per cache line.
func WithLinkLatency(t Time) Option { return optionFunc(func(c *Config) { c.LinkLatency = t }) }

// WithSTEntries overrides SynCron's Synchronization Table size.
func WithSTEntries(n int) Option { return optionFunc(func(c *Config) { c.STEntries = n }) }

// WithOverflow selects the ST-overflow handling policy (§6.7.3).
func WithOverflow(p OverflowPolicy) Option { return optionFunc(func(c *Config) { c.Overflow = p }) }

// WithFairness enables the §4.4.2 lock-fairness extension.
func WithFairness(threshold int) Option {
	return optionFunc(func(c *Config) { c.FairnessThreshold = threshold })
}

// WithSEServiceCycles overrides the SE occupancy per message in SE cycles
// (paper: 12); used by the ablation-seservice sensitivity study.
func WithSEServiceCycles(cycles int64) Option {
	return optionFunc(func(c *Config) { c.SEServiceCycles = cycles })
}

// WithSeed makes all simulated randomness reproducible.
func WithSeed(seed uint64) Option { return optionFunc(func(c *Config) { c.Seed = seed }) }

// WithTracer attaches a Tracer to the run (typically a *TraceCollector).
// Tracing is strictly observational: it never changes simulated results, and
// a nil tracer (the default) costs nothing — every hook point is
// branch-guarded on the nil check. The tracer does not participate in result
// caching (SpecKey) or serialized output; pair it with
// cache-less execution, since a cache hit skips the simulation entirely.
func WithTracer(t Tracer) Option { return optionFunc(func(c *Config) { c.Tracer = t }) }
