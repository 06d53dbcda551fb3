package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
)

// TestTokenWalkChaserDeterministic: the adaptive token-chaser forces
// edge-loss retries via two-phase (announce, hop) rounds, the walk still
// completes all steps, and the result is byte-identical for every worker
// count.
func TestTokenWalkChaserDeterministic(t *testing.T) {
	g := ringCliques(t, 4, 6)
	chaser, err := dyngraph.NewTokenChaser(g, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40
	run := func(workers int) *TokenWalkResult {
		res, err := TokenWalk(g, 0, steps, WithSeed(8), WithTopology(chaser), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	if ref.Retries == 0 {
		t.Error("token chaser never hit the walk with an edge loss")
	}
	// Two-phase hops: at least one announce round per successful hop on top
	// of the hop rounds themselves.
	if ref.Rounds < 2*steps {
		t.Errorf("adaptive walk took %d rounds, want ≥ %d (announce + hop per step)", ref.Rounds, 2*steps)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.End != ref.End || got.Rounds != ref.Rounds || got.Retries != ref.Retries || got.Restarts != ref.Restarts {
			t.Errorf("workers=%d: chaser walk diverged: %+v vs %+v", workers, got, ref)
		}
	}
}

// TestTokenWalkCrashRestartDeterministic: a crash-stop/restart schedule
// strands the token on downed holders; with a retry budget the walk
// checkpoint-restarts at the source and still terminates — deterministically
// across worker counts.
func TestTokenWalkCrashRestartDeterministic(t *testing.T) {
	g, err := gen.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := dyngraph.NewCrashRestart(g, 31, 0.02, 40)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 60
	run := func(workers int) *TokenWalkResult {
		res, err := TokenWalk(g, 0, steps, WithSeed(12), WithTopology(crash),
			WithRetryBudget(5000), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	if ref.Retries == 0 {
		t.Error("crash schedule never cost the walk a retry")
	}
	if ref.Restarts == 0 {
		t.Error("no checkpoint restart despite 40-round crash outages (stuck detector never fired)")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.End != ref.End || got.Rounds != ref.Rounds || got.Retries != ref.Retries || got.Restarts != ref.Restarts {
			t.Errorf("workers=%d: crash walk diverged: %+v vs %+v", workers, got, ref)
		}
	}
}

// TestTokenWalkRetryBudgetExhausted: an unrestricted chaser with budget ≥
// degree isolates the holder permanently; the walk must fail fast with
// ErrRetryBudget — not grind to ErrRoundLimit.
func TestTokenWalkRetryBudgetExhausted(t *testing.T) {
	g := ringCliques(t, 3, 5)
	base, err := dyngraph.NewTokenChaser(g, 5, g.N())
	if err != nil {
		t.Fatal(err)
	}
	chaser := base.WithoutBackbone()
	_, err = TokenWalk(g, 0, 30, WithSeed(8), WithTopology(chaser),
		WithRetryBudget(60), WithMaxRounds(50_000))
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("isolating chaser: err = %v, want ErrRetryBudget", err)
	}
	// Legacy mode (budget 0) must still be the old infinite-patience walk:
	// same adversary, bounded rounds → round-limit failure, not a hang.
	_, err = TokenWalk(g, 0, 30, WithSeed(8), WithTopology(chaser), WithMaxRounds(2_000))
	if err == nil || errors.Is(err, ErrRetryBudget) {
		t.Fatalf("budget-0 walk under isolation: err = %v, want round-limit failure", err)
	}
}

// TestTokenWalkRetryBudgetValidation: negative budgets are rejected.
func TestTokenWalkRetryBudgetValidation(t *testing.T) {
	g, err := gen.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TokenWalk(g, 0, 5, WithRetryBudget(-1)); err == nil {
		t.Error("negative retry budget accepted")
	}
}

// TestDynamicEstimateConservesMassUnderCrashes: vertex crashes isolate
// nodes mid-flood; isolated nodes hold their mass for the outage, so the
// fixed-point total is still conserved exactly.
func TestDynamicEstimateConservesMassUnderCrashes(t *testing.T) {
	g := ringCliques(t, 4, 6)
	crash, err := dyngraph.NewCrashRestart(g, 19, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Lazy: true}
	cfg.Engine.Topology = crash
	cfg.Engine.Seed = 1
	est, err := EstimateRWProbability(g, 0, 15, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalMass() != est.Scale.One {
		t.Errorf("crash churn leaked mass: Σw=%d, want %d", est.TotalMass(), est.Scale.One)
	}
	if est.Stats.DroppedSends != 0 {
		// emitShares only sends over active edges, so crashes must never
		// bounce a share — they only change the divisor.
		t.Errorf("dynamic flooding bounced %d shares; active-edge sends never bounce", est.Stats.DroppedSends)
	}
	if est.Stats.TopologyChanges == 0 {
		t.Error("crash schedule never toggled an edge during the estimate")
	}
}

// TestDynamicLocalMixingUnderBoundaryAttack: Algorithm 2 publishes its mass
// (emitShares) for the witness-boundary adversary to read; the run must
// still complete and stay worker-invariant with the adversary reacting to
// published state.
func TestDynamicLocalMixingUnderBoundaryAttack(t *testing.T) {
	// A torus, not a ring of cliques: a clique witness set's only boundary
	// edges would be the ring bridges, which are backbone and uncuttable.
	g, err := gen.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	attack, err := dyngraph.NewBoundaryAttacker(g, 23, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	// β = 2 so the walk is long enough for mass to spread beyond the source
	// within a flood window: with τ = 1 only the source would ever publish,
	// and a singleton witness set at the backbone root has no cuttable
	// boundary.
	run := func(workers int) *Result {
		res, err := ApproxLocalMixingTime(g, 0, 2, dynEps, WithTopology(attack),
			WithSeed(3), WithLazy(), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		scrubGrows(res)
		return res
	}
	ref := run(1)
	if ref.Tau <= 0 {
		t.Fatalf("tau=%d under boundary attack, want > 0", ref.Tau)
	}
	if ref.Stats.TopologyChanges == 0 {
		t.Fatal("boundary attacker never cut an edge (is the mass being published?)")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.Tau != ref.Tau || got.Sum != ref.Sum || got.Stats.Rounds != ref.Stats.Rounds {
			t.Errorf("workers=%d: boundary-attacked run diverged", workers)
		}
	}
}
