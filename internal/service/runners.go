package service

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/exact"
	"repro/internal/spec"
	"repro/internal/spread"
)

// TauResult wraps the scalar answer of the mixing-time oracles so every
// runner returns a JSON-marshalable struct.
type TauResult struct {
	// Tau is the computed (local) mixing time in walk steps.
	Tau int
}

// RoundsResult wraps the scalar answer of round-counting tasks (leader
// election).
type RoundsResult struct {
	// Rounds is the number of gossip rounds executed.
	Rounds int
}

// registerBuiltins registers one runner per facade entry-point family.
// Each description names the equivalent localmix facade call — the
// equivalence the service tests enforce with reflect.DeepEqual.
func registerBuiltins(r *Registry) {
	r.Register(spec.KindOracleMixing,
		"centralized exact mixing time τ_mix_s(ε) (= localmix.MixingTime)",
		runOracleMixing)
	r.Register(spec.KindOracleLocal,
		"centralized exact local mixing time τ_s(β,ε) with witness set (= localmix.LocalMixingTime)",
		runOracleLocal)
	r.Register(spec.KindOracleGraphMixing,
		"centralized batched all-sources mixing time τ_mix(ε) (= localmix.GraphMixingTime)",
		runOracleGraphMixing)
	r.Register(spec.KindOracleGraphLocal,
		"centralized graph-wide local mixing time τ(β,ε) (= localmix.GraphLocalMixingTime)",
		runOracleGraphLocal)
	r.Register(spec.KindMixing,
		"distributed [18]-style mixing time (= localmix.DistributedMixingTime)",
		runDistributed)
	r.Register(spec.KindLocal,
		"distributed Algorithm 2 / §3.2-exact local mixing time (= localmix.Distributed(Exact)LocalMixingTime)",
		runDistributed)
	r.Register(spec.KindSweep,
		"parallel multi-source distributed sweep, warm pools (= localmix.DistributedGraph*MixingTime)",
		runSweep)
	r.Register(spec.KindWalk,
		"token-forwarding random walk, one hop per round (= localmix.DynamicWalk)",
		runWalk)
	r.Register(spec.KindEstimate,
		"Algorithm 1 fixed-point walk-distribution estimate (= localmix.EstimateRWProbability)",
		runEstimate)
	r.Register(spec.KindSpread,
		"push–pull gossip (§4): local or congest transport (= localmix.PushPull*)",
		runSpread)
	r.Register(spec.KindLeader,
		"min-id leader election over gossip (= localmix.LeaderElection)",
		runLeader)
	r.Register(spec.KindCoverage,
		"distributed maximum coverage via partial spreading (= localmix.DistributedMaxCoverage)",
		runCoverage)
}

// runConfig maps the invocation onto its core run: the task's config
// (core.TaskConfig), then the facade's options, then the resolved churn
// provider. A facade invocation carries zero Task knobs, so its run is
// exactly the caller's option list.
func runConfig(inv *Invocation) (core.Config, error) {
	cfg, err := core.TaskConfig(inv.Task)
	if err != nil {
		return cfg, err
	}
	for _, op := range inv.Opts {
		op(&cfg)
	}
	if inv.Churn != nil {
		cfg.Engine.Topology = inv.Churn
	}
	return cfg, nil
}

// localOptions renders the centralized-oracle options from the spec, or
// the facade override verbatim.
func localOptions(inv *Invocation) exact.LocalOptions {
	if inv.Local != nil {
		return *inv.Local
	}
	t := inv.Task
	return exact.LocalOptions{
		Lazy:    t.Lazy,
		MaxT:    t.MaxT,
		Grid:    !t.FullScan,
		Workers: t.Workers,
	}
}

func runOracleMixing(inv *Invocation) (any, error) {
	t := inv.Task
	g := inv.Env.Graph()
	k, err := inv.Env.kernel(t.Workers)
	if err != nil {
		return nil, err
	}
	tau, err := exact.MixingTimeKernel(inv.Context(), g, k, t.Source, t.Eps, t.Lazy, t.MaxT)
	if err != nil {
		return nil, err
	}
	return &TauResult{Tau: tau}, nil
}

func runOracleLocal(inv *Invocation) (any, error) {
	t := inv.Task
	g := inv.Env.Graph()
	o := localOptions(inv)
	k, err := inv.Env.kernel(o.Workers)
	if err != nil {
		return nil, err
	}
	return exact.LocalMixingKernel(inv.Context(), g, k, t.Source, t.Beta, t.Eps, o)
}

func runOracleGraphMixing(inv *Invocation) (any, error) {
	t := inv.Task
	g := inv.Env.Graph()
	k, err := inv.Env.kernel(t.Workers)
	if err != nil {
		return nil, err
	}
	tau, err := exact.GraphMixingTimeKernel(inv.Context(), g, k, t.Eps, t.Lazy, t.MaxT)
	if err != nil {
		return nil, err
	}
	return &TauResult{Tau: tau}, nil
}

func runOracleGraphLocal(inv *Invocation) (any, error) {
	t := inv.Task
	g := inv.Env.Graph()
	o := localOptions(inv)
	k, err := inv.Env.kernel(o.Workers)
	if err != nil {
		return nil, err
	}
	return exact.GraphLocalMixingKernel(inv.Context(), g, k, t.Beta, t.Eps, o, t.Sources)
}

// runDistributed runs the local and mixing kinds; core.TaskConfig has
// already picked the algorithm.
func runDistributed(inv *Invocation) (any, error) {
	cfg, err := runConfig(inv)
	if err != nil {
		return nil, err
	}
	return core.Run(inv.Env.Graph(), cfg)
}

func runWalk(inv *Invocation) (any, error) {
	cfg, err := runConfig(inv)
	if err != nil {
		return nil, err
	}
	res, err := core.TokenWalk(inv.Env.Graph(), cfg.Source, inv.Task.Steps, func(c *core.Config) { *c = cfg })
	if err != nil {
		return nil, err
	}
	if inv.ctr != nil {
		inv.ctr.tokenRetries.Add(int64(res.Retries))
	}
	return res, nil
}

func runEstimate(inv *Invocation) (any, error) {
	cfg, err := runConfig(inv)
	if err != nil {
		return nil, err
	}
	return core.EstimateRWProbability(inv.Env.Graph(), cfg.Source, inv.Task.Steps, cfg)
}

func runSweep(inv *Invocation) (any, error) {
	cfg, err := runConfig(inv)
	if err != nil {
		return nil, err
	}
	t := inv.Task
	o := core.SweepOptions{Workers: t.SweepWorkers, Sources: t.Sources, Sample: t.Sample}
	if inv.SweepOpts != nil {
		o = *inv.SweepOpts
	}
	if o.Ctx == nil {
		o.Ctx = inv.Ctx
	}
	sw, err := inv.Env.sweepPool(poolKey(cfg, inv.churnKey, o.Workers), cfg, o.Workers)
	if err != nil {
		return nil, err
	}
	return sw.Sweep(o)
}

// poolKey renders the canonical key of a warm sweep pool: the config and
// worker count (core.PoolKey) and the churn model. The per-sweep source
// selection is not part of it, so repeated sweeps with different samples
// share one pool.
func poolKey(cfg core.Config, churnKey string, workers int) string {
	return core.PoolKey(cfg, workers) + "/churn=" + churnKey
}

func runSpread(inv *Invocation) (any, error) {
	t := inv.Task
	cfg := spread.Config{
		Beta:          t.Beta,
		MaxRounds:     t.MaxRounds,
		Seed:          t.Seed,
		StopAtPartial: t.StopAtPartial,
		FixedRounds:   t.FixedRounds,
		Workers:       t.Workers,
	}
	if inv.Spread != nil {
		cfg = *inv.Spread
	}
	switch t.Transport {
	case "", "local":
		return spread.Run(inv.Env.Graph(), cfg)
	case "congest":
		return spread.RunCongest(inv.Env.Graph(), cfg)
	default:
		return nil, fmt.Errorf("service: unknown spread transport %q", t.Transport)
	}
}

func runLeader(inv *Invocation) (any, error) {
	t := inv.Task
	rounds, err := spread.LeaderElection(inv.Env.Graph(), t.Seed, t.MaxRounds)
	if err != nil {
		return nil, err
	}
	return &RoundsResult{Rounds: rounds}, nil
}

func runCoverage(inv *Invocation) (any, error) {
	t := inv.Task
	inst := inv.Instance
	if inst == nil {
		c := t.Coverage
		if c == nil {
			return nil, fmt.Errorf("service: coverage task needs an instance spec")
		}
		var err error
		inst, err = coverage.RandomInstance(inv.Env.Graph().N(), c.Universe, c.PerNode, c.K,
			rand.New(rand.NewSource(c.Seed)))
		if err != nil {
			return nil, err
		}
	}
	return coverage.Distributed(inv.Env.Graph(), inst, t.Beta, t.Seed)
}
