package core

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/fixedpoint"
	"repro/internal/graph"
	"repro/internal/spec"
)

// Mode selects which of the paper's algorithms to run.
type Mode int

const (
	// ApproxLocal is Algorithm 2: doubling lengths, 2-approximation of
	// τ_s(β, ε) under the assumption τ_s·φ(S) = o(1) (Theorem 1).
	ApproxLocal Mode = iota
	// ExactLocal is the §3.2 variant: unit length increments, exact
	// τ_s(β, ε) with no assumptions (Theorem 2).
	ExactLocal
	// MixTime is the baseline distributed mixing-time computation in the
	// style of Molla–Pandurangan [18]: doubling plus binary-search
	// refinement, O(τ_mix log n) rounds.
	MixTime
)

// String returns the mode's human-readable name.
func (m Mode) String() string {
	switch m {
	case ApproxLocal:
		return "approx-local"
	case ExactLocal:
		return "exact-local"
	case MixTime:
		return "mixing-time"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes one distributed run.
type Config struct {
	// Mode selects the algorithm.
	Mode Mode
	// Source is the vertex s the walk starts from.
	Source int
	// Beta is the set-size parameter β ≥ 1: local mixing is sought over
	// sets of size at least n/β. Ignored by MixTime.
	Beta float64
	// Eps is the accuracy parameter ε ∈ (0,1). The paper's running example
	// is ε = 1/8e ≈ 0.046. Algorithm 2 tests against 4ε (Lemma 3) and uses
	// (1+ε) as the set-size grid ratio.
	Eps float64
	// Lazy selects the lazy walk (required on bipartite graphs).
	Lazy bool
	// C is the fixed-point exponent: probabilities are exchanged on a grid
	// of ≈ n^-C (Algorithm 1's rounding). Defaults to fixedpoint.DefaultC.
	C int
	// MaxLength aborts the search when the walk length exceeds it.
	// Defaults to 8·n².
	MaxLength int
	// AllowIrregular permits non-regular graphs in the local modes. The
	// paper's Algorithm 2 assumes regular graphs (targets 1/|S|); on
	// near-regular graphs such as the Figure 1 barbell the same targets
	// remain meaningful, so the flag exists for exactly that use.
	AllowIrregular bool
	// RetryBudget bounds the cumulative edge-loss retries of a TokenWalk on
	// a dynamic network: a stuck holder checkpoint-restarts the walk at the
	// source, and once the budget is exhausted the run fails fast with
	// ErrRetryBudget instead of burning MaxRounds. Zero (the default) keeps
	// the legacy unlimited-patience behavior. Ignored by the Run modes.
	RetryBudget int
	// TieBreakBits enables the paper's §3.1 randomized tie-breaking: each
	// node perturbs x_u by a private random value below 2^-TieBreakBits of
	// the value grid, making all x_u distinct w.h.p. so the binary search
	// can isolate exactly R values. Zero (the default) selects the
	// deterministic alternative implemented here: the source resolves ties
	// arithmetically from (count, sum) at the R-th smallest value, with no
	// randomness and zero failure probability. Both must return the same τ
	// (ablation A3).
	TieBreakBits int
	// Engine carries the congest engine knobs (seed, workers, bandwidth,
	// round limit).
	Engine congest.Config
}

// TaskConfig maps a task spec onto the Config that runs it. It is the one
// translation from the job layer's vocabulary to a core run: the service
// runners and the cluster peers both call it. It resolves the algorithm
// (KindLocal with or without Exact, KindMixing, or a sweep's Mode), the ε
// default and every engine knob. Every other kind keeps the zero Mode,
// which the walk and estimate entry points ignore.
func TaskConfig(t spec.TaskSpec) (Config, error) {
	cfg := Config{
		Source:         t.Source,
		Beta:           t.Beta,
		Eps:            t.Eps,
		Lazy:           t.Lazy,
		C:              t.C,
		MaxLength:      t.MaxLength,
		AllowIrregular: t.Irregular,
		RetryBudget:    t.RetryBudget,
		TieBreakBits:   t.TieBreakBits,
	}
	if cfg.Eps == 0 {
		cfg.Eps = spec.DefaultEps
	}
	cfg.Engine.Seed, cfg.Engine.Workers, cfg.Engine.MaxRounds = t.Seed, t.Workers, t.MaxRounds
	switch t.Kind {
	case spec.KindMixing:
		cfg.Mode = MixTime
	case spec.KindLocal:
		if t.Exact {
			cfg.Mode = ExactLocal
		}
	case spec.KindSweep:
		switch t.Mode {
		case "", "approx":
		case "exact":
			cfg.Mode = ExactLocal
		case "mixing":
			cfg.Mode = MixTime
		default:
			return cfg, fmt.Errorf("core: unknown sweep mode %q", t.Mode)
		}
	}
	return cfg, nil
}

func (c *Config) withDefaults(g *graph.Graph) (Config, error) {
	out := *c
	n := g.N()
	if n < 2 {
		return out, errors.New("core: need at least 2 vertices")
	}
	if !g.IsConnected() {
		return out, graph.ErrNotConnected
	}
	if out.Source < 0 || out.Source >= n {
		return out, fmt.Errorf("core: source %d out of range [0,%d)", out.Source, n)
	}
	if out.Eps <= 0 || out.Eps >= 1 {
		return out, fmt.Errorf("core: need ε ∈ (0,1), got %g", out.Eps)
	}
	if out.Mode != MixTime {
		if out.Beta < 1 {
			return out, fmt.Errorf("core: need β ≥ 1, got %g", out.Beta)
		}
		if _, regular := g.Regular(); !regular && !out.AllowIrregular {
			return out, errors.New("core: local-mixing modes assume a regular graph (set AllowIrregular to override)")
		}
	}
	if !out.Lazy && g.IsBipartite() {
		return out, errors.New("core: simple walk does not mix on a bipartite graph; set Lazy")
	}
	if out.C == 0 {
		out.C = fixedpoint.DefaultC
	}
	if out.TieBreakBits < 0 || out.TieBreakBits > 16 {
		return out, fmt.Errorf("core: TieBreakBits must be in [0,16], got %d", out.TieBreakBits)
	}
	if out.MaxLength == 0 {
		out.MaxLength = 8 * n * n
	}
	return out, nil
}

// PhaseTrace records one epoch (one walk length ℓ) of a run.
type PhaseTrace struct {
	Ell          int   // walk length examined
	StartRound   int   // engine round at which the phase began
	TreeRebuilt  bool  // whether BFS ran this phase
	TreeSize     int64 // census: nodes within the depth cap
	MaxDepth     int64 // census: tree depth
	SizesChecked int   // how many R values were examined
	Queries      int   // binary-search probes issued
}

// Result reports a completed distributed run.
type Result struct {
	Mode Mode
	// Tau is the computed walk length: the (2-approximate or exact) local
	// mixing time, or the mixing time in MixTime mode.
	Tau int
	// R is the witness set size for the local modes (0 in MixTime mode).
	R int
	// Sum is the achieved L1 test value, in probability units.
	Sum float64
	// Scale is the fixed-point grid used on the wire.
	Scale fixedpoint.Scale
	// Phases traces every epoch.
	Phases []PhaseTrace
	// Stats are the engine's round/message/bit counters.
	Stats *congest.Stats
}

// ErrNoConvergence is returned when MaxLength was reached without the test
// passing.
var ErrNoConvergence = errors.New("core: walk length limit reached without mixing")
