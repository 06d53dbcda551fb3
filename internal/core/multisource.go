package core

import (
	"fmt"
	"runtime"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// SweepOptions selects the sources and the parallelism of a multi-source
// sweep (see internal/sweep): Workers sweep workers, each owning one
// reusable network; Sources explicit (nil = every vertex); Sample a
// deterministic footnote-6 subsample when Sources is nil.
type SweepOptions = sweep.Options

// MultiResult aggregates distributed runs from several sources: the
// graph-wide local mixing time τ(β,ε) = max_s τ_s(β,ε) of Definition 2, or
// the graph-wide mixing time max_s τ_mix_s(ε) in MixTime mode. The paper
// notes computing it from every vertex costs an n-factor (footnote 6) and
// suggests sampling sources; SweepOptions controls exactly that.
//
// All fields are identical for every sweep worker count: results are merged
// in canonical source order, and each per-source run is seeded from (base
// seed, source) alone. The per-source Stats have their StepGrows /
// DeliverGrows allocation counters zeroed — under network reuse those count
// pool warm-up, not the simulation (congest.Stats documents them as
// execution-dependent).
type MultiResult struct {
	// Tau is the maximum over the examined sources.
	Tau int
	// ArgMax is the first source (in Sources order) attaining it.
	ArgMax int
	// Sources lists the examined sources, in result order.
	Sources []int
	// Results holds each source's full result, in Sources order.
	Results []*Result
	// TotalRounds, TotalMessages and TotalBits sum the engine counters
	// across the per-source runs — the n-factor overhead the paper
	// describes, made visible in the paper's round/message accounting.
	TotalRounds   int
	TotalMessages int64
	TotalBits     int64
}

// SweepPool runs multi-source sweeps of one distributed algorithm on one
// graph, keeping its worker networks and responder slabs warm across calls:
// repeated sweeps (different source subsets, samples, or the same sweep
// again) pay network construction once per worker, ever.
type SweepPool struct {
	prep *prepared
	pool *sweep.Pool[*Result]
}

// PoolKey renders the canonical key of the pool NewSweepPool(g, c, workers)
// builds: everything in c that selects the pool's algorithm, parameters and
// seeds, plus the worker count. It leaves out c.Source, which the pool
// ignores, and the churn provider, which a caller that attaches one keys
// itself.
func PoolKey(c Config, workers int) string {
	return fmt.Sprintf("m=%v/b=%g/e=%g/lazy=%t/c=%d/ml=%d/tb=%d/irr=%t/seed=%d/ew=%d/mr=%d/bw=%d/w=%d",
		c.Mode, c.Beta, c.Eps, c.Lazy, c.C, c.MaxLength, c.TieBreakBits,
		c.AllowIrregular, c.Engine.Seed, c.Engine.Workers, c.Engine.MaxRounds,
		c.Engine.BandwidthBits, workers)
}

// NewSweepPool validates the config (cfg.Source is ignored; cfg.Mode may be
// any mode, including MixTime) and builds a pool of the given number of
// workers (≤ 0 means GOMAXPROCS). cfg.Engine.Seed is the sweep's base seed:
// each per-source run derives its own engine seed from it via
// sweep.DeriveSeed, so runs are reproducible and uncorrelated.
func NewSweepPool(g *graph.Graph, cfg Config, workers int) (*SweepPool, error) {
	cfg.Source = 0 // per-source override; keep validation independent of the field
	p, err := prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && p.engCfg.Workers <= 0 {
		// Divide the cores between the two parallelism layers: with W sweep
		// workers, a defaulted engine config would give each of the W
		// networks GOMAXPROCS stepping shards — W·P goroutines contending
		// for P cores. Engine results are worker-count invariant, so capping
		// the inner width is free. An explicit Engine.Workers is respected.
		ew := runtime.GOMAXPROCS(0) / workers
		if ew < 1 {
			ew = 1
		}
		p.engCfg.Workers = ew
	}
	newRunner := func(net *congest.Network) (sweep.Runner[*Result], error) {
		nodes := congest.NewPages[node](g.N()) // worker-owned responder slab
		return func(net *congest.Network, source int, seed int64) (*Result, error) {
			return p.runOn(net, source, seed, nodes)
		}, nil
	}
	return &SweepPool{prep: p, pool: sweep.NewPool(g, p.engCfg, workers, newRunner)}, nil
}

// Sweep runs the pool's algorithm from every selected source and merges the
// results (o.Workers is ignored — the pool's size rules).
func (sp *SweepPool) Sweep(o SweepOptions) (*MultiResult, error) {
	out, err := sp.pool.Sweep(o)
	if err != nil {
		return nil, err // already sweep:/core:-prefixed by the scheduler/runner
	}
	return mergeSweep(out), nil
}

// MergeSweep folds per-source results, already in canonical source order,
// into a MultiResult — the exact fold Sweep performs. The cluster
// coordinator uses it to assemble a distributed sweep from per-chunk results
// so the merged answer is DeepEqual to the single-process sweep. Each
// result's StepGrows/DeliverGrows counters are zeroed (they count pool
// warm-up, which is execution-dependent).
func MergeSweep(sources []int, results []*Result) *MultiResult {
	return mergeSweep(&sweep.Outcome[*Result]{Sources: sources, Results: results})
}

// mergeSweep folds a sweep outcome into a MultiResult in canonical source
// order.
func mergeSweep(out *sweep.Outcome[*Result]) *MultiResult {
	m := &MultiResult{Tau: -1, Sources: out.Sources, Results: out.Results}
	for i, r := range out.Results {
		r.Stats.StepGrows, r.Stats.DeliverGrows = 0, 0
		m.TotalRounds += r.Stats.Rounds
		m.TotalMessages += r.Stats.Messages
		m.TotalBits += r.Stats.Bits
		if r.Tau > m.Tau {
			m.Tau = r.Tau
			m.ArgMax = out.Sources[i]
		}
	}
	return m
}
