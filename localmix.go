package localmix

import (
	"math/rand"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dyngraph"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/spread"
)

// call routes a facade invocation through the service registry — the same
// runners cmd/lmt and cmd/lmtd dispatch to — over an uncached DirectEnv,
// so the facade stays a thin veneer with exactly one code path per task
// kind and byte-identical results to a service.Run of the equivalent spec.
func call[R any](kind spec.Kind, inv *service.Invocation) (R, error) {
	inv.Task.Kind = kind
	res, err := service.Call(kind, inv)
	if err != nil {
		var zero R
		return zero, err
	}
	return res.(R), nil
}

// Graph is an immutable simple undirected graph (CSR adjacency).
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder creates a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Generators (paper §2.3 families and friends).
var (
	// Complete returns K_n (§2.3 a: both mixing times are Θ(1)).
	Complete = gen.Complete
	// Path returns P_n (§2.3 c: τ_mix = Θ(n²), τ_s(β) = Θ((n/β)²)).
	Path = gen.Path
	// Cycle returns C_n.
	Cycle = gen.Cycle
	// Star returns K_{1,n-1} (irregular; for testing).
	Star = gen.Star
	// Torus returns the rows×cols torus (4-regular).
	Torus = gen.Torus
	// Grid returns the rows×cols grid.
	Grid = gen.Grid
	// Hypercube returns the 2^dim hypercube (bipartite: use lazy walks).
	Hypercube = gen.Hypercube
	// Lollipop returns the clique+path lollipop.
	Lollipop = gen.Lollipop
	// Dumbbell returns two cliques joined by a path.
	Dumbbell = gen.Dumbbell
	// Barbell returns the Figure 1 β-barbell: a path of β cliques
	// (§2.3 d: τ_mix = Ω(β²), τ_s(β) = O(1)).
	Barbell = gen.Barbell
	// RingOfCliques returns the exactly-regular ring variant of the
	// barbell.
	RingOfCliques = gen.RingOfCliques
	// RandomRegular returns a connected random d-regular graph (an
	// expander w.h.p., §2.3 b).
	RandomRegular = gen.RandomRegular
	// RingOfExpanders returns β expander blocks arranged in a ring,
	// exactly d-regular.
	RingOfExpanders = gen.RingOfExpanders
	// ErdosRenyi returns a connected G(n,p) sample.
	ErdosRenyi = gen.ErdosRenyi
)

// NewRand returns a deterministic RNG for the randomized generators.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// MixingTime computes τ_mix_s(ε) = min{t : ‖p_t − π‖₁ < ε} exactly
// (centralized oracle; Definition 1).
func MixingTime(g *Graph, source int, eps float64, lazy bool, maxT int) (int, error) {
	r, err := call[*service.TauResult](spec.KindOracleMixing, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Source: source, Eps: eps, Lazy: lazy, MaxT: maxT},
	})
	if err != nil {
		return 0, err
	}
	return r.Tau, nil
}

// GraphMixingTime computes τ_mix(ε) = max_s τ_mix_s(ε) over every source,
// evolving sources in 16-lane batches on the shared walk kernel (one edge
// pass advances a whole batch) instead of n serial walks.
func GraphMixingTime(g *Graph, eps float64, lazy bool, maxT int) (int, error) {
	r, err := call[*service.TauResult](spec.KindOracleGraphMixing, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Eps: eps, Lazy: lazy, MaxT: maxT},
	})
	if err != nil {
		return 0, err
	}
	return r.Tau, nil
}

// LocalMixingResult is the centralized local-mixing oracle output.
type LocalMixingResult = exact.LocalResult

// LocalMixingOptions configures the centralized local-mixing oracle. The
// Workers field sets the walk-kernel parallelism (≤ 0 means GOMAXPROCS);
// results never depend on it.
type LocalMixingOptions = exact.LocalOptions

// LocalMixingTime computes τ_s(β, ε) exactly (centralized oracle;
// Definition 2 with the uniform 1/|S| target) and returns a witness
// local-mixing set.
func LocalMixingTime(g *Graph, source int, beta, eps float64, o LocalMixingOptions) (*LocalMixingResult, error) {
	return call[*LocalMixingResult](spec.KindOracleLocal, &service.Invocation{
		Env:   service.DirectEnv(g),
		Task:  spec.TaskSpec{Source: source, Beta: beta, Eps: eps},
		Local: &o,
	})
}

// DistributedResult is the output of the CONGEST algorithms: the computed
// time, the witness set size, and the engine's round/message/bit counters.
type DistributedResult = core.Result

// DistributedOption tweaks a distributed run (WithLazy, WithSeed, WithC,
// WithMaxLength, WithIrregular, WithWorkers, WithTopology,
// WithRetryBudget).
type DistributedOption = core.Option

// Re-exported distributed options.
var (
	WithLazy        = core.WithLazy
	WithSeed        = core.WithSeed
	WithC           = core.WithC
	WithMaxLength   = core.WithMaxLength
	WithIrregular   = core.WithIrregular
	WithWorkers     = core.WithWorkers
	WithTopology    = core.WithTopology
	WithRetryBudget = core.WithRetryBudget
)

// ErrRetryBudget is returned by DynamicWalk when the cumulative count of
// churn-forced retries (bounces plus crash restarts) exceeds the
// WithRetryBudget bound — the walk fails fast instead of grinding against
// an adversary that keeps destroying its progress.
var ErrRetryBudget = core.ErrRetryBudget

// DistributedLocalMixingTime runs the paper's Algorithm 2 (LOCAL-MIXING-
// TIME) in a simulated CONGEST network: a 2-approximation of τ_s(β, ε) in
// O(τ_s log²n log_{1+ε}β) rounds (Theorem 1). With WithTopology the walk
// mass floods over the per-round topology chosen by the churn model while
// the control plane rides the static superset: the result is the earliest ℓ
// at which the ℓ-step dynamic walk passes the 4ε local-mixing test, and a
// churn-free model gives the static answer.
func DistributedLocalMixingTime(g *Graph, source int, beta, eps float64, opts ...DistributedOption) (*DistributedResult, error) {
	return call[*DistributedResult](spec.KindLocal, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Source: source, Beta: beta, Eps: eps},
		Opts: opts,
	})
}

// DistributedExactLocalMixingTime runs the §3.2 exact variant:
// O(τ_s·D̃·log n·log_{1+ε}β) rounds, no assumptions (Theorem 2).
func DistributedExactLocalMixingTime(g *Graph, source int, beta, eps float64, opts ...DistributedOption) (*DistributedResult, error) {
	return call[*DistributedResult](spec.KindLocal, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Source: source, Beta: beta, Eps: eps, Exact: true},
		Opts: opts,
	})
}

// DistributedMixingTime runs the baseline distributed mixing-time
// computation ([18]; O(τ_mix log n) rounds). Under WithTopology churn the
// walk is measured against the superset's stationary distribution, the
// fixed reference for how far churn displaces it.
func DistributedMixingTime(g *Graph, source int, eps float64, opts ...DistributedOption) (*DistributedResult, error) {
	return call[*DistributedResult](spec.KindMixing, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Source: source, Eps: eps},
		Opts: opts,
	})
}

// SweepOptions selects the sources and parallelism of a distributed
// multi-source sweep: Workers concurrent per-source runs (0 = GOMAXPROCS),
// each on its own reusable CONGEST network; Sources an explicit list (nil =
// every vertex); Sample a deterministic random subset of that many vertices
// (the paper's footnote 6 mitigation) when Sources is nil. Results are
// identical for every worker count, and per-source engine seeds are derived
// from the base seed (WithSeed) with splitmix64, so sweeps are reproducible
// with uncorrelated per-source randomness.
type SweepOptions = core.SweepOptions

// DistributedSweepResult aggregates a multi-source distributed sweep: the
// graph-wide maximum, each per-source result in canonical order, and the
// summed round/message/bit accounting.
type DistributedSweepResult = core.MultiResult

// DistributedGraphLocalMixingTime sweeps the paper's Algorithm 2 over many
// sources in parallel: the distributed analogue of Definition 2's
// graph-wide τ(β,ε) = max_v τ_v(β,ε), with the n-factor sweep cost
// (footnote 6) spread across o.Workers reusable networks.
func DistributedGraphLocalMixingTime(g *Graph, beta, eps float64, o SweepOptions, opts ...DistributedOption) (*DistributedSweepResult, error) {
	return call[*DistributedSweepResult](spec.KindSweep, &service.Invocation{
		Env:       service.DirectEnv(g),
		Task:      spec.TaskSpec{Beta: beta, Eps: eps, Mode: "approx"},
		SweepOpts: &o,
		Opts:      opts,
	})
}

// DistributedGraphExactLocalMixingTime is DistributedGraphLocalMixingTime
// with the §3.2 exact per-source variant (Theorem 2).
func DistributedGraphExactLocalMixingTime(g *Graph, beta, eps float64, o SweepOptions, opts ...DistributedOption) (*DistributedSweepResult, error) {
	return call[*DistributedSweepResult](spec.KindSweep, &service.Invocation{
		Env:       service.DirectEnv(g),
		Task:      spec.TaskSpec{Beta: beta, Eps: eps, Mode: "exact"},
		SweepOpts: &o,
		Opts:      opts,
	})
}

// DistributedGraphMixingTime sweeps the [18]-style distributed mixing-time
// computation over many sources in parallel: the graph-wide
// τ_mix(ε) = max_s τ_mix_s(ε) with full round/message/bit accounting.
func DistributedGraphMixingTime(g *Graph, eps float64, o SweepOptions, opts ...DistributedOption) (*DistributedSweepResult, error) {
	return call[*DistributedSweepResult](spec.KindSweep, &service.Invocation{
		Env:       service.DirectEnv(g),
		Task:      spec.TaskSpec{Eps: eps, Mode: "mixing"},
		SweepOpts: &o,
		Opts:      opts,
	})
}

// TopologyProvider drives per-round edge churn on a dynamic network: the
// engine consults it at every round boundary to activate/deactivate edges
// of the static superset graph. See the churn-model constructors below and
// internal/dyngraph for the determinism contract.
type TopologyProvider = congest.TopologyProvider

// Seeded deterministic churn models (internal/dyngraph). All of them
// protect a BFS spanning backbone (the adversaries until WithoutBackbone
// lifts it; the crash model via its protect list) so every round's topology
// stays connected — the standing assumption of the dynamic-network
// literature — and derive every round's decisions from (model seed, round,
// published state) alone, so one model instance is shareable across the
// worker networks of a sweep.
var (
	// EdgeMarkovChurn builds the edge-Markovian evolving graph: each edge
	// flips on→off with probability pOff and off→on with pOn, per round.
	EdgeMarkovChurn = dyngraph.NewEdgeMarkov
	// IntervalChurn resamples the active edge set every `every` rounds
	// (each non-backbone edge kept with probability keep) and holds it
	// fixed in between — a T-interval-stable topology.
	IntervalChurn = dyngraph.NewInterval
	// SnapshotChurn cycles through explicit generator snapshots (subgraphs
	// of the superset), switching every `period` rounds.
	SnapshotChurn = dyngraph.NewSnapshots
	// GraphUnion builds the superset of several same-vertex-set graphs —
	// the static graph a snapshot-churned network is sized for.
	GraphUnion = dyngraph.Union

	// TokenChaserChurn builds the adaptive token-chasing adversary: each
	// round it reads the protocol-published token position and spends its
	// edge budget cutting the holder's incident edges. The strongest
	// walk-slowing adversary in the suite.
	TokenChaserChurn = dyngraph.NewTokenChaser
	// UniformCutterChurn is the rate-matched oblivious control for the
	// chaser: the same per-round budget, spent on uniformly random edges
	// with no knowledge of protocol state.
	UniformCutterChurn = dyngraph.NewUniformCutter
	// BoundaryAttackerChurn targets the sparse-cut boundary around the
	// source's neighborhood, attacking the conductance the local mixing
	// time measures.
	BoundaryAttackerChurn = dyngraph.NewBoundaryAttacker
	// CrashRestartChurn builds the crash-stop/restart vertex-fault model:
	// each unprotected vertex crashes with probability pCrash per round
	// (dropping all incident edges) and restarts after down rounds.
	CrashRestartChurn = dyngraph.NewCrashRestart

	// VerifyTInterval checks the Kuhn–Lynch–Oshman property: a provider
	// satisfies T-interval connectivity over `rounds` rounds if every
	// window of T consecutive topologies shares a stable connected
	// spanning subgraph.
	VerifyTInterval = dyngraph.VerifyTInterval
	// MaxTInterval reports the largest T for which the provider is
	// T-interval connected over the horizon (0 if some single round is
	// already disconnected).
	MaxTInterval = dyngraph.MaxTInterval
)

// DynamicWalkResult reports a token walk: endpoint, rounds, and the
// edge-loss retries the churn forced.
type DynamicWalkResult = core.TokenWalkResult

// DynamicWalk performs one ℓ-step random walk by token forwarding, one hop
// per round — the Das Sarma–Molla–Pandurangan dynamic-walk primitive. The
// walker picks uniformly among its superset neighbors without advance
// knowledge of the round's edges; a hop over a vanished edge bounces back
// and is restarted, and a crash of the holder restarts the walk from its
// last checkpoint. Combine with WithTopology for churn and WithRetryBudget
// to bound how much adversarial interference the walk tolerates before
// failing fast with ErrRetryBudget; on a static graph it is the classical
// ℓ-round walk with zero retries.
func DynamicWalk(g *Graph, source, steps int, opts ...DistributedOption) (*DynamicWalkResult, error) {
	return call[*DynamicWalkResult](spec.KindWalk, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Source: source, Steps: steps},
		Opts: opts,
	})
}

// EstimateRWProbability runs Algorithm 1 standalone: the fixed-point
// estimate of the length-ℓ walk distribution, computed distributed in ℓ+1
// CONGEST rounds.
func EstimateRWProbability(g *Graph, source, ell int, lazy bool) (*core.RWEstimate, error) {
	return call[*core.RWEstimate](spec.KindEstimate, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Source: source, Steps: ell, Lazy: lazy},
	})
}

// SpreadConfig configures the push–pull gossip run (§4).
type SpreadConfig = spread.Config

// SpreadResult reports a push–pull run.
type SpreadResult = spread.Result

// PushPull runs synchronous push–pull gossip and reports when (·, β)-partial
// and full information spreading were reached (Definition 3, Theorem 3).
func PushPull(g *Graph, cfg SpreadConfig) (*SpreadResult, error) {
	return call[*SpreadResult](spec.KindSpread, &service.Invocation{
		Env:    service.DirectEnv(g),
		Task:   spec.TaskSpec{Transport: "local"},
		Spread: &cfg,
	})
}

// EngineStats exposes the congest engine counters type.
type EngineStats = congest.Stats

// CoverageInstance is a distributed maximum-coverage instance (§1/§4
// application: each node owns a subset of a ground set).
type CoverageInstance = coverage.Instance

// CoverageResult reports a distributed maximum-coverage run.
type CoverageResult = coverage.Result

// RandomCoverageInstance builds a coverage instance with per-node random
// element sets.
func RandomCoverageInstance(n, universe, perNode, k int, rng *rand.Rand) (*CoverageInstance, error) {
	return coverage.RandomInstance(n, universe, perNode, k, rng)
}

// DistributedMaxCoverage solves maximum coverage via partial information
// spreading followed by local greedy, and reports quality against the
// centralized greedy baseline.
func DistributedMaxCoverage(g *Graph, inst *CoverageInstance, beta float64, seed int64) (*CoverageResult, error) {
	return call[*CoverageResult](spec.KindCoverage, &service.Invocation{
		Env:      service.DirectEnv(g),
		Task:     spec.TaskSpec{Beta: beta, Seed: seed},
		Instance: inst,
	})
}

// LeaderElection runs min-id gossip until every node knows the global
// minimum id, returning the round count.
func LeaderElection(g *Graph, seed int64, maxRounds int) (int, error) {
	r, err := call[*service.RoundsResult](spec.KindLeader, &service.Invocation{
		Env:  service.DirectEnv(g),
		Task: spec.TaskSpec{Seed: seed, MaxRounds: maxRounds},
	})
	if err != nil {
		return 0, err
	}
	return r.Rounds, nil
}

// PushPullCongest runs push–pull under the CONGEST constraint — one
// O(log n)-bit token id per message — realizing the paper's footnote 10
// regime with bound Õ(τ(β,ε) + n/β).
func PushPullCongest(g *Graph, cfg SpreadConfig) (*SpreadResult, error) {
	return call[*SpreadResult](spec.KindSpread, &service.Invocation{
		Env:    service.DirectEnv(g),
		Task:   spec.TaskSpec{Transport: "congest"},
		Spread: &cfg,
	})
}

// GraphLocalMixingResult reports the graph-wide local mixing time
// τ(β,ε) = max_v τ_v(β,ε).
type GraphLocalMixingResult = exact.GraphLocalResult

// GraphLocalMixingTime computes τ(β,ε) over all vertices (sources == nil)
// or a sampled subset (the paper's footnote 6 mitigation), in parallel.
func GraphLocalMixingTime(g *Graph, beta, eps float64, o LocalMixingOptions, sources []int) (*GraphLocalMixingResult, error) {
	return call[*GraphLocalMixingResult](spec.KindOracleGraphLocal, &service.Invocation{
		Env:   service.DirectEnv(g),
		Task:  spec.TaskSpec{Beta: beta, Eps: eps, Sources: sources},
		Local: &o,
	})
}
