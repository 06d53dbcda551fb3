package spec

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// Kind names a registered task family. The strings are the wire values of
// the service API (POST /v1/run) and the registry's lookup keys.
type Kind string

// The built-in task kinds. Each corresponds to exactly one facade entry
// point family of the root localmix package (see internal/service for the
// runner registrations).
const (
	// KindOracleMixing is the centralized exact mixing-time oracle
	// (Definition 1): τ_mix_s(ε) from one source.
	KindOracleMixing Kind = "oracle-mixing"
	// KindOracleLocal is the centralized exact local-mixing oracle
	// (Definition 2): τ_s(β, ε) with a witness set.
	KindOracleLocal Kind = "oracle-local"
	// KindOracleGraphMixing is the batched all-sources centralized mixing
	// time τ_mix(ε) = max_s τ_mix_s(ε).
	KindOracleGraphMixing Kind = "oracle-graph-mixing"
	// KindOracleGraphLocal is the centralized graph-wide local mixing time
	// τ(β, ε) = max_v τ_v(β, ε) over all or sampled sources.
	KindOracleGraphLocal Kind = "oracle-graph-local"
	// KindMixing is the distributed [18]-style mixing-time computation.
	KindMixing Kind = "mixing"
	// KindLocal is the distributed local-mixing computation: Algorithm 2
	// (Theorem 1), or the §3.2 exact variant when Exact is set.
	KindLocal Kind = "local"
	// KindSweep is the parallel multi-source distributed sweep; Mode
	// selects approx, exact, or mixing per-source runs.
	KindSweep Kind = "sweep"
	// KindWalk is the token-forwarding random walk (one hop per round),
	// optionally under churn.
	KindWalk Kind = "walk"
	// KindEstimate is the standalone Algorithm 1 run: the fixed-point
	// length-ℓ walk distribution estimate.
	KindEstimate Kind = "estimate"
	// KindSpread is push–pull gossip (§4); Transport selects the direct
	// LOCAL simulator or the CONGEST variant.
	KindSpread Kind = "spread"
	// KindLeader is min-id leader election over gossip.
	KindLeader Kind = "leader"
	// KindCoverage is distributed maximum coverage via partial spreading.
	KindCoverage Kind = "coverage"
)

// Kinds lists every built-in task kind in registration order.
func Kinds() []Kind {
	return []Kind{
		KindOracleMixing, KindOracleLocal, KindOracleGraphMixing,
		KindOracleGraphLocal, KindMixing, KindLocal, KindSweep,
		KindWalk, KindEstimate, KindSpread, KindLeader, KindCoverage,
	}
}

// DefaultEps is the accuracy parameter applied when a TaskSpec leaves Eps
// zero: the paper's running example ε = 1/8e ≈ 0.046.
const DefaultEps = 1.0 / 21.746

// ChurnSpec selects a deterministic churn model for the distributed kinds
// (see internal/dyngraph). The oblivious models (markov, interval,
// snapshot, cutter, crash) derive every round's decisions from
// (Seed, round) alone; the adaptive adversaries (chaser) additionally read
// the protocol's round-boundary published state — still deterministically,
// so a spec'd dynamic run is reproducible either way.
type ChurnSpec struct {
	// Model is markov, interval, snapshot, chaser, cutter, or crash.
	Model string `json:"model"`
	// Rate is the churn intensity: markov P(on→off); interval, the
	// fraction of non-backbone edges down per window (keep = 1−Rate);
	// crash, the per-vertex per-round crash probability.
	Rate float64 `json:"rate,omitempty"`
	// On is the markov P(off→on) reactivation probability, verbatim:
	// 0 (or omitted) means deactivated edges never come back.
	On float64 `json:"on,omitempty"`
	// Every is the interval resample window, or the snapshot switch
	// period, in rounds. Required ≥ 1 for those models (cmd/lmt supplies
	// its -churnevery flag default of 8).
	Every int `json:"every,omitempty"`
	// Snapshots is the rotating-sample count for the snapshot model
	// (0 = 3).
	Snapshots int `json:"snapshots,omitempty"`
	// Degree is the snapshot model's random-regular sample degree (0 = 4).
	Degree int `json:"degree,omitempty"`
	// Budget is the adversary's per-round edge-cut budget for the chaser
	// and cutter models (0 = a toothless adversary that cuts nothing).
	Budget int `json:"budget,omitempty"`
	// Down is the crash model's outage length in rounds; required ≥ 1 for
	// that model (cmd/lmt supplies its -churndown flag default of 8).
	Down int `json:"down,omitempty"`
	// Seed seeds the model; 0 falls back to the task seed.
	Seed int64 `json:"seed,omitempty"`
}

// ClusterSpec routes a distributed task to the service's attached peer
// cluster (internal/cluster) instead of computing it in-process. Like
// Workers it is schedule-only: the cluster determinism contract makes the
// results identical to the in-process run, so the field is excluded from
// derived seeds and result-cache keys.
type ClusterSpec struct {
	// Peers is how many registered peers the run spans (0 = every peer
	// currently registered with the coordinator).
	Peers int `json:"peers,omitempty"`
}

// CoverageSpec describes the random maximum-coverage instance of a
// coverage task.
type CoverageSpec struct {
	// Universe is the ground-set size.
	Universe int `json:"universe"`
	// PerNode is how many elements each node draws.
	PerNode int `json:"perNode"`
	// K is how many sets to pick.
	K int `json:"k"`
	// Seed draws the instance (independent from the run seed).
	Seed int64 `json:"seed,omitempty"`
}

// TaskSpec names one computation over a graph: the task kind plus every
// option the corresponding facade entry point exposes. Zero values mean
// "the facade default"; the service's normalization fills the documented
// defaults (Eps, MaxT) before running.
type TaskSpec struct {
	// Kind selects the registered runner.
	Kind Kind `json:"kind"`
	// Source is the source vertex s.
	Source int `json:"source,omitempty"`
	// Beta is the local-mixing set-size parameter β (also the gossip β
	// for spread/coverage).
	Beta float64 `json:"beta,omitempty"`
	// Eps is the accuracy parameter ε ∈ (0,1); 0 selects DefaultEps.
	Eps float64 `json:"eps,omitempty"`
	// Lazy selects the lazy walk (required on bipartite graphs).
	Lazy bool `json:"lazy,omitempty"`
	// Exact selects the §3.2 exact variant for KindLocal.
	Exact bool `json:"exact,omitempty"`
	// Mode selects KindSweep's per-source algorithm (approx|exact|mixing,
	// default approx).
	Mode string `json:"mode,omitempty"`
	// MaxT is the centralized oracles' step budget (0 = 8n²).
	MaxT int `json:"maxT,omitempty"`
	// FullScan disables the oracle's geometric candidate-size grid and
	// examines every admissible set size (the literal Definition 2).
	FullScan bool `json:"fullScan,omitempty"`
	// Steps is the walk length ℓ for KindWalk and KindEstimate.
	Steps int `json:"steps,omitempty"`
	// RetryBudget bounds a KindWalk run's cumulative edge-loss retries
	// under churn (core.WithRetryBudget): stuck holders checkpoint-restart
	// the walk at the source, and exhausting the budget fails the run fast.
	// 0 keeps the unlimited-patience default.
	RetryBudget int `json:"retryBudget,omitempty"`
	// Seed seeds the engine (distributed kinds) or the gossip RNG
	// (spread, leader, coverage). When 0 the service derives a
	// deterministic per-request seed from its base seed and the request
	// content.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the engine/kernel parallelism (0 = GOMAXPROCS). Results
	// never depend on it.
	Workers int `json:"workers,omitempty"`
	// SweepWorkers sizes the sweep worker pool for KindSweep.
	SweepWorkers int `json:"sweepWorkers,omitempty"`
	// DeadlineMS caps the request's wall-clock budget in milliseconds,
	// covering admission queueing and execution; 0 means no deadline. Like
	// Workers it is schedule-only: it can abort a run (with a
	// timeout-tagged error) but never changes a completed result, so it is
	// excluded from derived seeds and result-cache keys.
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
	// Sources lists explicit sweep sources (nil = every vertex).
	Sources []int `json:"sources,omitempty"`
	// Sample sweeps a deterministic random subset of this many sources
	// (the paper's footnote 6 mitigation).
	Sample int `json:"sample,omitempty"`
	// Irregular permits near-regular graphs in the distributed local
	// modes (core.WithIrregular).
	Irregular bool `json:"irregular,omitempty"`
	// C is the fixed-point exponent (core.WithC).
	C int `json:"c,omitempty"`
	// MaxLength caps the searched walk length (core.WithMaxLength).
	MaxLength int `json:"maxLength,omitempty"`
	// MaxRounds caps the engine rounds (distributed kinds) or the gossip
	// rounds (spread, leader).
	MaxRounds int `json:"maxRounds,omitempty"`
	// TieBreakBits enables the §3.1 randomized tie-breaking.
	TieBreakBits int `json:"tieBreakBits,omitempty"`
	// StopAtPartial stops a spread run at (·, β)-partial spreading.
	StopAtPartial bool `json:"stopAtPartial,omitempty"`
	// FixedRounds runs a spread for exactly this many rounds.
	FixedRounds int `json:"fixedRounds,omitempty"`
	// Transport selects the spread implementation: local (direct LOCAL
	// simulator, the default) or congest.
	Transport string `json:"transport,omitempty"`
	// Churn attaches a dynamic-network churn model (distributed kinds).
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Cluster runs the task on the service's attached peer cluster
	// (KindLocal, KindMixing, KindWalk, KindSweep; incompatible with
	// Churn).
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Coverage describes the KindCoverage instance.
	Coverage *CoverageSpec `json:"coverage,omitempty"`
}

// knownKinds is the membership set for validation.
var knownKinds = func() map[Kind]bool {
	m := make(map[Kind]bool, len(Kinds()))
	for _, k := range Kinds() {
		m[k] = true
	}
	return m
}()

// distributedKinds accept a churn model.
var distributedKinds = map[Kind]bool{
	KindMixing: true, KindLocal: true, KindSweep: true, KindWalk: true,
}

// ClusterKinds are the task kinds a peer cluster can compute: the
// single-source distributed runs whose state is message-driven end to end
// (so a vertex shard per peer reconstructs the exact single-process
// results), plus the multi-source sweep, which fans source chunks across
// peers with no data plane at all.
var ClusterKinds = map[Kind]bool{
	KindLocal: true, KindMixing: true, KindWalk: true, KindSweep: true,
}

// Validate checks kind membership and the cross-field constraints that do
// not need the graph; parameter ranges are enforced by the runners (and
// ultimately by internal/core and internal/exact), so errors there match
// the direct facade calls byte for byte.
func (t TaskSpec) Validate() error {
	if !knownKinds[t.Kind] {
		return fmt.Errorf("spec: unknown task kind %q (see Kinds)", t.Kind)
	}
	if t.Eps < 0 || t.Eps >= 1 {
		return fmt.Errorf("spec: eps must be in [0,1) (0 = default %g), got %g", DefaultEps, t.Eps)
	}
	if t.DeadlineMS < 0 {
		return fmt.Errorf("spec: deadlineMS must be ≥ 0 (0 = none), got %d", t.DeadlineMS)
	}
	if t.RetryBudget < 0 {
		return fmt.Errorf("spec: retryBudget must be ≥ 0 (0 = unlimited), got %d", t.RetryBudget)
	}
	if t.Sources != nil && len(t.Sources) == 0 {
		// An explicit empty source list has always been a sweep error; reject
		// it here so it cannot share a canonical key (JSON omits empty
		// slices) with the nil "every vertex" form.
		return fmt.Errorf("spec: sources, when present, must list at least one source (omit for every vertex)")
	}
	if t.Churn != nil {
		if !distributedKinds[t.Kind] {
			return fmt.Errorf("spec: kind %s does not accept a churn model", t.Kind)
		}
		switch t.Churn.Model {
		case "markov", "interval", "snapshot", "chaser", "cutter", "crash":
		default:
			return fmt.Errorf("spec: unknown churn model %q (want markov, interval, snapshot, chaser, cutter or crash)", t.Churn.Model)
		}
	}
	if t.Cluster != nil {
		if !ClusterKinds[t.Kind] {
			return fmt.Errorf("spec: kind %s does not distribute across a cluster (want %s, %s, %s or %s)",
				t.Kind, KindLocal, KindMixing, KindWalk, KindSweep)
		}
		if t.Churn != nil {
			return fmt.Errorf("spec: churn models are not supported on a cluster yet")
		}
		// Sweeps fan whole source chunks across peers, so even a single
		// peer is a legitimate (if pointless) cluster; the engine kinds
		// shard one run and need at least two.
		if p := t.Cluster.Peers; p < 0 || (p == 1 && t.Kind != KindSweep) {
			return fmt.Errorf("spec: cluster peers must be 0 (all registered) or ≥ 2, got %d", p)
		}
	}
	if t.Mode != "" && t.Kind != KindSweep {
		return fmt.Errorf("spec: mode selects a %s algorithm; kind %s takes none", KindSweep, t.Kind)
	}
	if t.Exact && t.Kind != KindLocal {
		return fmt.Errorf("spec: exact selects the §3.2 variant of kind %s, not %s", KindLocal, t.Kind)
	}
	switch t.Kind {
	case KindSweep:
		if m := t.Mode; m != "" && m != "approx" && m != "exact" && m != "mixing" {
			return fmt.Errorf("spec: sweep mode must be approx, exact or mixing, got %q", m)
		}
	case KindSpread:
		if tr := t.Transport; tr != "" && tr != "local" && tr != "congest" {
			return fmt.Errorf("spec: spread transport must be local or congest, got %q", tr)
		}
	case KindCoverage:
		if t.Coverage == nil {
			return fmt.Errorf("spec: kind %s requires a coverage instance spec", t.Kind)
		}
	}
	return nil
}

// WithoutUnread returns the task with every field its kind never reads
// zeroed, so requests that differ only there derive one seed and share one
// result. A field is read if it can change the result or fail the kind's
// validation. Seed (echoed in the response), the fields Validate ties to
// kinds (Mode, Exact, Churn, Cluster) and the schedule-only fields
// (Workers, SweepWorkers, DeadlineMS) are kept.
func (t TaskSpec) WithoutUnread() TaskSpec {
	reads := func(kinds ...Kind) bool { return slices.Contains(kinds, t.Kind) }
	oracle := reads(KindOracleMixing, KindOracleLocal, KindOracleGraphMixing, KindOracleGraphLocal)
	engine := reads(KindMixing, KindLocal, KindSweep, KindEstimate)
	if !reads(KindOracleMixing, KindOracleLocal, KindMixing, KindLocal, KindWalk, KindEstimate) {
		t.Source = 0
	}
	if !reads(KindOracleLocal, KindOracleGraphLocal, KindLocal, KindSweep, KindEstimate, KindSpread, KindCoverage) {
		t.Beta = 0
	}
	if !oracle && !engine {
		t.Eps = 0
	}
	if !engine {
		t.C, t.TieBreakBits = 0, 0
	}
	if !oracle && !engine && t.Kind != KindWalk {
		t.Lazy = false
	}
	if !oracle {
		t.MaxT = 0
	}
	if !reads(KindOracleLocal, KindOracleGraphLocal) {
		t.FullScan = false
	}
	if !reads(KindWalk, KindEstimate) {
		t.Steps = 0
	}
	if t.Kind != KindWalk {
		t.RetryBudget = 0
	}
	if !reads(KindOracleGraphLocal, KindSweep) {
		t.Sources = nil
	}
	if t.Kind != KindSweep {
		t.Sample = 0
	}
	if !reads(KindLocal, KindSweep) {
		t.Irregular = false
	}
	if !reads(KindMixing, KindLocal, KindSweep) {
		t.MaxLength = 0
	}
	if oracle || reads(KindCoverage) {
		t.MaxRounds = 0
	}
	if t.Kind != KindSpread {
		t.StopAtPartial, t.FixedRounds, t.Transport = false, 0, ""
	}
	if t.Kind != KindCoverage {
		t.Coverage = nil
	}
	return t
}

// Deadline returns the request's wall-clock budget as a duration
// (0 = none).
func (t TaskSpec) Deadline() time.Duration {
	return time.Duration(t.DeadlineMS) * time.Millisecond
}

// Key renders the canonical JSON of the task — the request-content half of
// the service's per-request derived seeds. Struct field order fixes the
// rendering, so equal specs render equal keys.
func (t TaskSpec) Key() string {
	b, err := json.Marshal(t)
	if err != nil { // unreachable: TaskSpec has no unmarshalable fields
		panic(fmt.Sprintf("spec: task key: %v", err))
	}
	return string(b)
}
