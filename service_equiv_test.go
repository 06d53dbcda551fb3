package localmix

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/service"
	"repro/internal/spec"
)

// The job-layer equivalence contract: for every registered task kind,
// service.Run over a spec must return a result byte-identical
// (reflect.DeepEqual) to the corresponding direct facade call on the same
// graph. The facade delegates through the same runners, so any divergence
// here means the cache or the spec normalization changed a computation.
func TestServiceRunMatchesFacadeEveryKind(t *testing.T) {
	gs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}
	svc := service.New(service.Options{})
	g, _, err := svc.Graph(gs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(t *testing.T, task spec.TaskSpec) *service.Response {
		t.Helper()
		resp, err := svc.Run(ctx, service.Request{Graph: gs, Task: task})
		if err != nil {
			t.Fatalf("service.Run: %v", err)
		}
		return resp
	}
	const (
		eps  = 0.05
		beta = 4.0
		seed = int64(5)
	)
	maxT := 8 * g.N() * g.N()
	oracleOpts := LocalMixingOptions{MaxT: maxT, Grid: true}

	checks := []struct {
		name   string
		task   spec.TaskSpec
		facade func() (any, error)
	}{
		{"oracle-mixing",
			spec.TaskSpec{Kind: spec.KindOracleMixing, Eps: eps},
			func() (any, error) {
				tau, err := MixingTime(g, 0, eps, false, maxT)
				return &service.TauResult{Tau: tau}, err
			}},
		{"oracle-local",
			spec.TaskSpec{Kind: spec.KindOracleLocal, Beta: beta, Eps: eps},
			func() (any, error) { return LocalMixingTime(g, 0, beta, eps, oracleOpts) }},
		{"oracle-local-fullscan",
			spec.TaskSpec{Kind: spec.KindOracleLocal, Beta: beta, Eps: eps, FullScan: true},
			func() (any, error) { return LocalMixingTime(g, 0, beta, eps, LocalMixingOptions{MaxT: maxT}) }},
		{"oracle-graph-mixing",
			spec.TaskSpec{Kind: spec.KindOracleGraphMixing, Eps: eps},
			func() (any, error) {
				tau, err := GraphMixingTime(g, eps, false, maxT)
				return &service.TauResult{Tau: tau}, err
			}},
		{"oracle-graph-local",
			spec.TaskSpec{Kind: spec.KindOracleGraphLocal, Beta: beta, Eps: eps},
			func() (any, error) { return GraphLocalMixingTime(g, beta, eps, oracleOpts, nil) }},
		{"oracle-graph-local-fullscan",
			spec.TaskSpec{Kind: spec.KindOracleGraphLocal, Beta: beta, Eps: eps, FullScan: true},
			func() (any, error) { return GraphLocalMixingTime(g, beta, eps, LocalMixingOptions{MaxT: maxT}, nil) }},
		{"mixing",
			spec.TaskSpec{Kind: spec.KindMixing, Eps: eps, Seed: seed},
			func() (any, error) { return DistributedMixingTime(g, 0, eps, WithSeed(seed)) }},
		{"local",
			spec.TaskSpec{Kind: spec.KindLocal, Beta: beta, Eps: eps, Seed: seed},
			func() (any, error) { return DistributedLocalMixingTime(g, 0, beta, eps, WithSeed(seed)) }},
		{"local-exact",
			spec.TaskSpec{Kind: spec.KindLocal, Beta: beta, Eps: eps, Seed: seed, Exact: true},
			func() (any, error) { return DistributedExactLocalMixingTime(g, 0, beta, eps, WithSeed(seed)) }},
		{"sweep",
			spec.TaskSpec{Kind: spec.KindSweep, Mode: "approx", Beta: beta, Eps: eps, Seed: seed, Sample: 4, SweepWorkers: 2},
			func() (any, error) {
				return DistributedGraphLocalMixingTime(g, beta, eps, SweepOptions{Workers: 2, Sample: 4}, WithSeed(seed))
			}},
		{"sweep-mixing",
			spec.TaskSpec{Kind: spec.KindSweep, Mode: "mixing", Eps: eps, Seed: seed, Sources: []int{0, 7, 13}},
			func() (any, error) {
				return DistributedGraphMixingTime(g, eps, SweepOptions{Sources: []int{0, 7, 13}}, WithSeed(seed))
			}},
		{"local-churn",
			spec.TaskSpec{Kind: spec.KindLocal, Beta: beta, Eps: eps, Seed: seed,
				Churn: &spec.ChurnSpec{Model: "markov", Rate: 0.05, On: 0.5, Seed: 3}},
			func() (any, error) {
				churn, err := EdgeMarkovChurn(g, 3, 0.05, 0.5)
				if err != nil {
					return nil, err
				}
				return DistributedLocalMixingTime(g, 0, beta, eps, WithSeed(seed), WithTopology(churn))
			}},
		{"walk",
			spec.TaskSpec{Kind: spec.KindWalk, Steps: 16, Seed: seed},
			func() (any, error) { return DynamicWalk(g, 0, 16, WithSeed(seed)) }},
		{"estimate",
			spec.TaskSpec{Kind: spec.KindEstimate, Steps: 8},
			func() (any, error) { return EstimateRWProbability(g, 0, 8, false) }},
		{"spread",
			spec.TaskSpec{Kind: spec.KindSpread, Beta: beta, Seed: seed},
			func() (any, error) { return PushPull(g, SpreadConfig{Beta: beta, Seed: seed}) }},
		{"spread-congest",
			spec.TaskSpec{Kind: spec.KindSpread, Transport: "congest", Beta: beta, Seed: seed},
			func() (any, error) { return PushPullCongest(g, SpreadConfig{Beta: beta, Seed: seed}) }},
		{"leader",
			spec.TaskSpec{Kind: spec.KindLeader, Seed: seed},
			func() (any, error) {
				rounds, err := LeaderElection(g, seed, 0)
				return &service.RoundsResult{Rounds: rounds}, err
			}},
		{"coverage",
			spec.TaskSpec{Kind: spec.KindCoverage, Beta: beta, Seed: seed,
				Coverage: &spec.CoverageSpec{Universe: 50, PerNode: 4, K: 3, Seed: 9}},
			func() (any, error) {
				inst, err := RandomCoverageInstance(g.N(), 50, 4, 3, NewRand(9))
				if err != nil {
					return nil, err
				}
				return DistributedMaxCoverage(g, inst, beta, seed)
			}},
	}

	covered := map[spec.Kind]bool{}
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			resp := run(t, c.task)
			want, err := c.facade()
			if err != nil {
				t.Fatalf("facade: %v", err)
			}
			if !reflect.DeepEqual(resp.Result, want) {
				t.Fatalf("service result differs from the facade:\n  svc    %#v\n  facade %#v", resp.Result, want)
			}
			// And a warm repeat must be byte-stable too — served from the
			// result cache, with no second computation behind it.
			again := run(t, c.task)
			if !reflect.DeepEqual(again.Result, want) {
				t.Fatal("warm-cache repeat diverged from the facade result")
			}
			if !again.ResultHit {
				t.Fatal("identical repeat was not a result-cache hit")
			}
		})
		covered[c.task.Kind] = true
	}
	for _, k := range spec.Kinds() {
		if !covered[k] {
			t.Errorf("kind %s has no facade-equivalence check", k)
		}
	}
}

// The service promises that repeated requests on a warm cache allocate no
// new graph or kernel; the facade promises the same sharing never changes
// results. Spot-check the counters across a mixed request sequence.
func TestServiceWarmCacheCounters(t *testing.T) {
	gs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}
	svc := service.New(service.Options{})
	ctx := context.Background()
	tasks := []spec.TaskSpec{
		{Kind: spec.KindOracleMixing, Eps: 0.1},
		{Kind: spec.KindOracleLocal, Beta: 4, Eps: 0.05},
		{Kind: spec.KindOracleGraphMixing, Eps: 0.1},
		{Kind: spec.KindOracleGraphLocal, Beta: 4, Eps: 0.05},
	}
	for rep := 0; rep < 2; rep++ {
		for _, task := range tasks {
			if _, err := svc.Run(ctx, service.Request{Graph: gs, Task: task}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := svc.Metrics()
	if m.GraphMisses != 1 {
		t.Fatalf("8 requests built the graph %d times, want 1", m.GraphMisses)
	}
	if m.KernelBuilds != 1 {
		t.Fatalf("8 oracle requests built %d kernels, want 1", m.KernelBuilds)
	}
	if m.GraphHits != 7 {
		t.Fatalf("graph hits %d, want 7", m.GraphHits)
	}
}
