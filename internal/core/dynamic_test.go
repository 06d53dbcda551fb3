package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
)

const dynEps = 0.15

func ringCliques(t testing.TB, cliques, size int) *graph.Graph {
	t.Helper()
	g, err := gen.RingOfCliques(cliques, size)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scrubGrows zeroes the execution-dependent allocation counters so results
// can be compared across worker counts.
func scrubGrows(r *Result) {
	r.Stats.StepGrows, r.Stats.DeliverGrows = 0, 0
}

// TestDynamicLocalMixingTimeDeterministic: the acceptance criterion —
// byte-identical results for Workers ∈ {1, 2, GOMAXPROCS} under churn.
func TestDynamicLocalMixingTimeDeterministic(t *testing.T) {
	g := ringCliques(t, 4, 6)
	churn, err := dyngraph.NewEdgeMarkov(g, 7, 0.2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := ApproxLocalMixingTime(g, 0, 4, dynEps, WithTopology(churn),
			WithSeed(3), WithLazy(), WithIrregular(), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		scrubGrows(res)
		return res
	}
	ref := run(1)
	if ref.Stats.TopologyChanges == 0 {
		t.Fatal("churn model never toggled an edge")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: dynamic result diverged:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

// TestDynamicChurnFreeMatchesStatic: a provider that never churns must
// reproduce the static algorithm's answer exactly (the dynamic flooding
// path divides by the same degrees and reaches the same neighbors).
func TestDynamicChurnFreeMatchesStatic(t *testing.T) {
	g := ringCliques(t, 4, 6)
	still, err := dyngraph.NewEdgeMarkov(g, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := ApproxLocalMixingTime(g, 0, 4, dynEps, WithTopology(still), WithSeed(3), WithLazy(), WithIrregular())
	if err != nil {
		t.Fatal(err)
	}
	stat, err := ApproxLocalMixingTime(g, 0, 4, dynEps, WithSeed(3), WithLazy(), WithIrregular())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Tau != stat.Tau || dyn.R != stat.R || dyn.Sum != stat.Sum {
		t.Errorf("churn-free dynamic run: tau=%d R=%d sum=%g, static tau=%d R=%d sum=%g",
			dyn.Tau, dyn.R, dyn.Sum, stat.Tau, stat.R, stat.Sum)
	}
	if dyn.Stats.DroppedSends != 0 {
		t.Errorf("churn-free run dropped %d sends", dyn.Stats.DroppedSends)
	}
}

// TestDynamicMixingTime: the [18] baseline under interval churn completes
// and is worker-invariant.
func TestDynamicMixingTime(t *testing.T) {
	g, err := gen.Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := dyngraph.NewInterval(g, 9, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := MixingTime(g, 0, dynEps, WithTopology(churn), WithSeed(5), WithLazy(), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		scrubGrows(res)
		return res
	}
	ref := run(1)
	if ref.Tau <= 0 {
		t.Fatalf("dynamic mixing time %d, want > 0", ref.Tau)
	}
	if got := run(2); !reflect.DeepEqual(got, ref) {
		t.Errorf("workers=2: dynamic mixing result diverged")
	}
}

// TestChurnedSweepDeterministic: a multi-source sweep over a dynamic
// network — one immutable provider shared by every worker network — is
// byte-identical for every sweep worker count.
func TestChurnedSweepDeterministic(t *testing.T) {
	g := ringCliques(t, 4, 5)
	churn, err := dyngraph.NewEdgeMarkov(g, 11, 0.15, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ApproxLocal, Beta: 4, Eps: dynEps, Lazy: true, AllowIrregular: true}
	cfg.Engine.Seed = 2
	cfg.Engine.Topology = churn
	run := func(workers int) *MultiResult {
		multi, err := sweepOnce(g, cfg, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return multi
	}
	ref := run(1)
	if ref.Results[0].Stats.TopologyChanges == 0 {
		t.Fatal("churned sweep applied no topology changes")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: churned sweep diverged", workers)
		}
	}
}

// TestTokenWalkStatic: on a static network the token walk takes exactly one
// hop per round with zero retries, and is reproducible.
func TestTokenWalkStatic(t *testing.T) {
	g, err := gen.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 25
	res, err := TokenWalk(g, 0, steps, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Errorf("static walk retries=%d, want 0", res.Retries)
	}
	if res.End < 0 || res.End >= g.N() {
		t.Fatalf("endpoint %d out of range", res.End)
	}
	if res.Rounds < steps {
		t.Errorf("rounds=%d < steps=%d", res.Rounds, steps)
	}
	if !res.Stats.HaltedAll {
		t.Error("token walk left nodes running")
	}
	again, err := TokenWalk(g, 0, steps, WithSeed(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if again.End != res.End || again.Rounds != res.Rounds {
		t.Errorf("reseeded walk diverged: end %d/%d rounds %d/%d", again.End, res.End, again.Rounds, res.Rounds)
	}
	other, err := TokenWalk(g, 0, steps, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if other.End == res.End && other.Rounds == res.Rounds {
		t.Log("note: different seed reached the same endpoint (possible, but suspicious if persistent)")
	}
}

// TestTokenWalkDynamicRetries: under heavy churn the walker must lose hops
// to vanished edges, restart them (per Das Sarma et al.), and still finish
// the exact requested number of steps — deterministically for every worker
// count.
func TestTokenWalkDynamicRetries(t *testing.T) {
	g := ringCliques(t, 4, 6)
	churn, err := dyngraph.NewEdgeMarkov(g, 13, 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40
	run := func(workers int) *TokenWalkResult {
		res, err := TokenWalk(g, 0, steps, WithSeed(8), WithTopology(churn), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	if ref.Retries == 0 {
		t.Error("EdgeMarkov(0.5, 0.3) walk saw no edge-loss retries")
	}
	if ref.Rounds < steps+int(ref.Retries) {
		t.Errorf("rounds=%d, want ≥ steps+retries = %d", ref.Rounds, steps+int(ref.Retries))
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.End != ref.End || got.Rounds != ref.Rounds || got.Retries != ref.Retries {
			t.Errorf("workers=%d: walk diverged: %+v vs %+v", workers, got, ref)
		}
	}
}

// TestTokenWalkLazy: the lazy walk's self-loops consume rounds without
// messages; the walk still completes all steps.
func TestTokenWalkLazy(t *testing.T) {
	g, err := gen.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TokenWalk(g, 3, 30, WithSeed(6), WithLazy())
	if err != nil {
		t.Fatal(err)
	}
	if res.End < 0 || res.End >= g.N() {
		t.Fatalf("endpoint %d out of range", res.End)
	}
}

// TestTokenWalkValidation covers the error paths.
func TestTokenWalkValidation(t *testing.T) {
	g, _ := gen.Torus(4, 4)
	if _, err := TokenWalk(g, -1, 5); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := TokenWalk(g, 0, -1); err == nil {
		t.Error("negative length accepted")
	}
	disc := graph.NewBuilder(4).Build()
	if _, err := TokenWalk(disc, 0, 5); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// TestDynamicEstimateConservesMass: Algorithm 1 on a churned network still
// conserves the fixed-point mass exactly — the dynamic flooding only
// redirects shares, it never leaks them.
func TestDynamicEstimateConservesMass(t *testing.T) {
	g := ringCliques(t, 4, 6)
	churn, err := dyngraph.NewEdgeMarkov(g, 17, 0.3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Lazy: true}
	cfg.Engine.Topology = churn
	cfg.Engine.Seed = 1
	est, err := EstimateRWProbability(g, 0, 12, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalMass() != est.Scale.One {
		t.Errorf("dynamic flooding leaked mass: Σw=%d, want %d", est.TotalMass(), est.Scale.One)
	}
	if est.Stats.TopologyChanges == 0 {
		t.Error("churn model never toggled an edge during the estimate")
	}
}
