package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/fixedpoint"
	"repro/internal/graph"
	"repro/internal/protocol"
)

// prepared bundles a validated Config with the derived protocol parameters
// (fixed-point scale, wire sizes, resolved engine config). It is computed
// once per sweep and shared by every per-source run; only Source and
// Engine.Seed vary between runs.
type prepared struct {
	g      *graph.Graph
	cfg    Config // defaults applied; Source/Engine.Seed overridden per run
	scale  fixedpoint.Scale
	sizes  protocol.Sizes
	engCfg congest.Config
}

// prepare validates the config against the graph and derives the run
// parameters shared by every source.
func prepare(g *graph.Graph, cfg Config) (*prepared, error) {
	full, err := cfg.withDefaults(g)
	if err != nil {
		return nil, err
	}
	scale, err := fixedpoint.ScaleForHeadroom(g.N(), full.C, full.TieBreakBits)
	if err != nil {
		return nil, err
	}
	sizes := protocol.NewSizes(g.N(), scale)
	sizes.TieBits = full.TieBreakBits
	engCfg := full.Engine
	if engCfg.MaxRounds == 0 {
		// Generous default: every epoch costs O(ℓ + D·log·log); bound the
		// whole run by the length cap times a polylog cushion.
		engCfg.MaxRounds = 400*full.MaxLength + 200*g.N() + 2_000_000
	}
	return &prepared{g: g, cfg: full, scale: scale, sizes: sizes, engCfg: engCfg}, nil
}

// runOn executes one per-source computation on the given network — freshly
// built by Run, or a sweep worker's reused one (already reset and reseeded
// by congest.Network.Run; seed is recorded in the run's config). nodes is
// the caller's responder slab: paged, so node creation costs one
// allocation per page of vertices instead of one per vertex, and sweep
// workers reuse it across sources.
func (p *prepared) runOn(net *congest.Network, source int, seed int64, nodes *congest.Pages[node]) (*Result, error) {
	if source < 0 || source >= p.g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, p.g.N())
	}
	cfg := p.cfg
	cfg.Source = source
	cfg.Engine.Seed = seed
	sh := &shared{
		cfg:   cfg,
		scale: p.scale,
		sizes: p.sizes,
		twoM:  int64(2 * p.g.M()),
	}
	var drv *driver
	stats, err := net.Run(func(id int) congest.Process {
		if id == source {
			drv = newDriver(sh)
			return drv
		}
		nd := nodes.At(id)
		*nd = *newNode(sh)
		return nd
	})
	if drv != nil {
		drv.res.Stats = stats
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s run failed: %w", cfg.Mode, err)
	}
	if drv == nil {
		// Cluster peer that does not own the source: the engine constructs
		// processes only for this peer's vertex range, so no driver ran
		// here. The peer contributes its engine statistics; the source
		// owner's result carries the answer (internal/cluster merges).
		return &Result{Mode: cfg.Mode, Stats: stats}, nil
	}
	if drv.failErr != nil {
		return &drv.res, drv.failErr
	}
	return &drv.res, nil
}

// Run executes one distributed algorithm on the graph per the Config and
// returns the source's result together with the engine statistics. The run
// fails if the engine detects a model violation, the round limit elapses, or
// the walk-length cap is reached without the test passing.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	p, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	net, err := congest.NewNetwork(g, p.engCfg)
	if err != nil {
		return nil, err
	}
	return p.runOn(net, p.cfg.Source, p.cfg.Engine.Seed, congest.NewPages[node](g.N()))
}

// ApproxLocalMixingTime runs Algorithm 2 (LOCAL-MIXING-TIME, Theorem 1): a
// 2-approximation of τ_s(β, ε) via doubling walk lengths, valid when
// τ_s·φ(S) = o(1).
func ApproxLocalMixingTime(g *graph.Graph, source int, beta, eps float64, opts ...Option) (*Result, error) {
	cfg := Config{Mode: ApproxLocal, Source: source, Beta: beta, Eps: eps}
	for _, o := range opts {
		o(&cfg)
	}
	return Run(g, cfg)
}

// ExactLocalMixingTime runs the §3.2 variant (Theorem 2): unit length
// increments with a persistent walk; exact τ_s(β, ε) without assumptions.
func ExactLocalMixingTime(g *graph.Graph, source int, beta, eps float64, opts ...Option) (*Result, error) {
	cfg := Config{Mode: ExactLocal, Source: source, Beta: beta, Eps: eps}
	for _, o := range opts {
		o(&cfg)
	}
	return Run(g, cfg)
}

// MixingTime runs the baseline distributed mixing-time computation in the
// style of Molla–Pandurangan [18]: doubling plus binary-search refinement
// over lengths, O(τ_mix log n) rounds, returning the exact τ_mix_s(ε) on
// the fixed-point grid.
func MixingTime(g *graph.Graph, source int, eps float64, opts ...Option) (*Result, error) {
	cfg := Config{Mode: MixTime, Source: source, Eps: eps}
	for _, o := range opts {
		o(&cfg)
	}
	return Run(g, cfg)
}

// Option mutates a Config in the convenience constructors.
type Option func(*Config)

// WithLazy selects the lazy walk.
func WithLazy() Option { return func(c *Config) { c.Lazy = true } }

// WithSeed seeds the engine RNGs.
func WithSeed(seed int64) Option { return func(c *Config) { c.Engine.Seed = seed } }

// WithC sets the fixed-point exponent (the paper's c in 1/n^c).
func WithC(cc int) Option { return func(c *Config) { c.C = cc } }

// WithMaxLength caps the walk length searched.
func WithMaxLength(n int) Option { return func(c *Config) { c.MaxLength = n } }

// WithIrregular permits near-regular graphs (e.g. the Figure 1 barbell) in
// the local modes.
func WithIrregular() Option { return func(c *Config) { c.AllowIrregular = true } }

// WithWorkers sets the engine's stepping parallelism.
func WithWorkers(w int) Option { return func(c *Config) { c.Engine.Workers = w } }

// WithMaxRounds caps the engine's round budget (congest.Config.MaxRounds);
// zero keeps the mode's generous default.
func WithMaxRounds(n int) Option { return func(c *Config) { c.Engine.MaxRounds = n } }

// WithTopology runs the algorithm on a dynamic network driven by the given
// churn provider (see internal/dyngraph): the walk evolves on the per-round
// active topology while the control plane rides the static superset.
// Providers following the congest.TopologyProvider statelessness contract
// work in multi-source sweeps too, shared across all worker networks.
func WithTopology(p congest.TopologyProvider) Option {
	return func(c *Config) { c.Engine.Topology = p }
}

// WithRetryBudget bounds a TokenWalk's cumulative edge-loss retries on a
// dynamic network: stuck holders checkpoint-restart the walk at the source,
// and exhausting the budget fails the run fast with ErrRetryBudget. Zero
// (the default) keeps unlimited patience.
func WithRetryBudget(n int) Option { return func(c *Config) { c.RetryBudget = n } }

// WithRandomTieBreak enables the paper's §3.1 randomized tie-breaking with
// the given number of sub-grid bits (the deterministic threshold resolution
// is the default).
func WithRandomTieBreak(bits int) Option {
	return func(c *Config) { c.TieBreakBits = bits }
}
