package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/exact"
	"repro/internal/fixedpoint"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spec"
)

// testGraphs returns a family of small connected graphs with a designated
// source, spanning regular, near-regular and irregular topologies.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	gs := make(map[string]*graph.Graph)
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		gs[name] = g
	}
	g, err := gen.Complete(16)
	add("complete16", g, err)
	g, err = gen.Cycle(17)
	add("cycle17", g, err)
	g, err = gen.RingOfCliques(4, 8)
	add("ringcliques4x8", g, err)
	g, err = gen.RandomRegular(24, 4, rng)
	add("regular24x4", g, err)
	g, err = gen.Torus(4, 5)
	add("torus4x5", g, err)
	return gs
}

// TestEstimateMatchesFixedWalk checks that the distributed Algorithm 1
// produces bit-identical mass vectors to the centralized fixed-point twin,
// for several lengths, both chains.
func TestEstimateMatchesFixedWalk(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, lazy := range []bool{false, true} {
			scale := fixedpoint.MustScaleFor(g.N(), fixedpoint.DefaultC)
			fw, err := exact.NewFixedWalk(g, 0, scale, lazy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, ell := range []int{0, 1, 2, 3, 5, 8, 13} {
				fw.StepN(ell - fw.T())
				est, err := EstimateRWProbability(g, 0, ell, Config{Lazy: lazy})
				if err != nil {
					t.Fatalf("%s ℓ=%d lazy=%v: %v", name, ell, lazy, err)
				}
				if est.TotalMass() != scale.One {
					t.Errorf("%s ℓ=%d lazy=%v: mass %d, want %d", name, ell, lazy, est.TotalMass(), scale.One)
				}
				for u, want := range fw.W() {
					if est.W[u] != want {
						t.Fatalf("%s ℓ=%d lazy=%v node %d: got %d want %d", name, ell, lazy, u, est.W[u], want)
					}
				}
			}
		}
	}
}

// TestExactLocalMatchesTwin checks that the distributed exact algorithm
// (Theorem 2) returns exactly the value computed by the centralized
// fixed-point twin with unit length increments.
func TestExactLocalMatchesTwin(t *testing.T) {
	const beta, eps = 3.0, 1 / (8 * 2.718281828459045)
	for name, g := range testGraphs(t) {
		scale := fixedpoint.MustScaleFor(g.N(), fixedpoint.DefaultC)
		lazy := g.IsBipartite()
		want, err := exact.FixedLocalMixing(g, 0, scale, beta, eps, lazy, exact.Units(4*g.N()*g.N()))
		if err != nil {
			t.Fatalf("%s twin: %v", name, err)
		}
		cfg := Config{Mode: ExactLocal, Source: 0, Beta: beta, Eps: eps, Lazy: lazy, AllowIrregular: true}
		got, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%s distributed: %v", name, err)
		}
		if got.Tau != want.Tau || got.R != want.R {
			t.Errorf("%s: distributed (τ=%d R=%d) != twin (τ=%d R=%d)", name, got.Tau, got.R, want.Tau, want.R)
		}
		if got.Sum != scale.Float(want.Sum) {
			t.Errorf("%s: distributed sum %g != twin sum %g", name, got.Sum, scale.Float(want.Sum))
		}
	}
}

// TestApproxLocalMatchesTwin checks the doubling algorithm (Theorem 1)
// against the twin evaluated at the same doubling schedule.
func TestApproxLocalMatchesTwin(t *testing.T) {
	const beta, eps = 3.0, 0.046
	for name, g := range testGraphs(t) {
		scale := fixedpoint.MustScaleFor(g.N(), fixedpoint.DefaultC)
		lazy := g.IsBipartite()
		want, err := exact.FixedLocalMixing(g, 0, scale, beta, eps, lazy, exact.Doublings(4*g.N()*g.N()))
		if err != nil {
			t.Fatalf("%s twin: %v", name, err)
		}
		cfg := Config{Mode: ApproxLocal, Source: 0, Beta: beta, Eps: eps, Lazy: lazy, AllowIrregular: true}
		got, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%s distributed: %v", name, err)
		}
		if got.Tau != want.Tau || got.R != want.R {
			t.Errorf("%s: distributed (τ=%d R=%d) != twin (τ=%d R=%d)", name, got.Tau, got.R, want.Tau, want.R)
		}
	}
}

// TestMixingTimeMatchesFixedOracle checks the [18] baseline against a
// centralized scan of the fixed-point walk with the same global test.
func TestMixingTimeMatchesFixedOracle(t *testing.T) {
	const eps = 0.125
	for name, g := range testGraphs(t) {
		scale := fixedpoint.MustScaleFor(g.N(), fixedpoint.DefaultC)
		lazy := g.IsBipartite()
		threshold := scale.FromFloat(eps)
		fw, err := exact.NewFixedWalk(g, 0, scale, lazy)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := -1
		for tt := 0; tt <= 4*g.N()*g.N(); tt++ {
			if _, ok := exact.FixedMixingCheck(g, fw.W(), scale, threshold); ok {
				want = tt
				break
			}
			fw.Step()
		}
		if want < 0 {
			t.Fatalf("%s: oracle did not mix", name)
		}
		got, err := MixingTime(g, 0, eps, WithLazyIf(lazy))
		if err != nil {
			t.Fatalf("%s distributed: %v", name, err)
		}
		// The distributed algorithm starts at ℓ=1, so τ=0 (already mixed at
		// start) is reported as 1.
		if want == 0 {
			want = 1
		}
		if got.Tau != want {
			t.Errorf("%s: distributed τ_mix=%d, oracle %d", name, got.Tau, want)
		}
	}
}

// WithLazyIf conditionally enables laziness (test helper).
func WithLazyIf(lazy bool) Option {
	return func(c *Config) { c.Lazy = lazy }
}

// TestRejectsBadInputs exercises the validation paths.
func TestRejectsBadInputs(t *testing.T) {
	g, _ := gen.Cycle(8) // bipartite (even cycle)
	if _, err := ApproxLocalMixingTime(g, 0, 2, 0.05); err == nil {
		t.Error("bipartite + simple walk should be rejected")
	}
	if _, err := ApproxLocalMixingTime(g, 99, 2, 0.05, WithLazy()); err == nil {
		t.Error("out-of-range source should be rejected")
	}
	if _, err := ApproxLocalMixingTime(g, 0, 0.5, 0.05, WithLazy()); err == nil {
		t.Error("β < 1 should be rejected")
	}
	if _, err := ApproxLocalMixingTime(g, 0, 2, 1.5, WithLazy()); err == nil {
		t.Error("ε ≥ 1 should be rejected")
	}
	star, _ := gen.Star(8)
	if _, err := ApproxLocalMixingTime(star, 0, 2, 0.05, WithLazy()); err == nil {
		t.Error("irregular graph should be rejected without AllowIrregular")
	}
	// Disconnected graph.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := ApproxLocalMixingTime(b.Build(), 0, 2, 0.05, WithLazy()); !errors.Is(err, graph.ErrNotConnected) {
		t.Errorf("disconnected graph: got %v, want ErrNotConnected", err)
	}
}

// TestPathLocalVsGlobal reproduces the §2.3(c) separation on a small path:
// the local mixing time is much smaller than the mixing time.
func TestPathLocalVsGlobal(t *testing.T) {
	g, err := gen.Path(64)
	if err != nil {
		t.Fatal(err)
	}
	local, err := ExactLocalMixingTime(g, 0, 8, 0.125, WithLazy(), WithIrregular())
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	global, err := MixingTime(g, 0, 0.125, WithLazy())
	if err != nil {
		t.Fatalf("global: %v", err)
	}
	if local.Tau >= global.Tau {
		t.Errorf("path: local τ=%d should be ≪ global τ=%d", local.Tau, global.Tau)
	}
}

// TestTaskConfig pins the one spec-to-config mapping: the algorithm each
// kind selects, the ε default, and the engine knobs.
func TestTaskConfig(t *testing.T) {
	modes := []struct {
		task spec.TaskSpec
		want Mode
	}{
		{spec.TaskSpec{Kind: spec.KindLocal}, ApproxLocal},
		{spec.TaskSpec{Kind: spec.KindLocal, Exact: true}, ExactLocal},
		{spec.TaskSpec{Kind: spec.KindMixing}, MixTime},
		{spec.TaskSpec{Kind: spec.KindSweep}, ApproxLocal},
		{spec.TaskSpec{Kind: spec.KindSweep, Mode: "approx"}, ApproxLocal},
		{spec.TaskSpec{Kind: spec.KindSweep, Mode: "exact"}, ExactLocal},
		{spec.TaskSpec{Kind: spec.KindSweep, Mode: "mixing"}, MixTime},
	}
	for _, c := range modes {
		cfg, err := TaskConfig(c.task)
		if err != nil {
			t.Fatalf("%+v: %v", c.task, err)
		}
		if cfg.Mode != c.want {
			t.Errorf("%+v: mode %s, want %s", c.task, cfg.Mode, c.want)
		}
		if cfg.Eps != spec.DefaultEps {
			t.Errorf("%+v: ε %g, want the default %g", c.task, cfg.Eps, spec.DefaultEps)
		}
	}
	if _, err := TaskConfig(spec.TaskSpec{Kind: spec.KindSweep, Mode: "fast"}); err == nil {
		t.Error("unknown sweep mode accepted")
	}
	cfg, err := TaskConfig(spec.TaskSpec{Kind: spec.KindWalk, Source: 3, Beta: 2, Eps: 0.2, Lazy: true,
		Seed: 7, C: 3, MaxLength: 50, Irregular: true, Workers: 2, TieBreakBits: 4, MaxRounds: 900, RetryBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Source: 3, Beta: 2, Eps: 0.2, Lazy: true, C: 3, MaxLength: 50, AllowIrregular: true,
		RetryBudget: 5, TieBreakBits: 4}
	want.Engine.Seed, want.Engine.Workers, want.Engine.MaxRounds = 7, 2, 900
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("knobs mapped to %+v, want %+v", cfg, want)
	}
}
