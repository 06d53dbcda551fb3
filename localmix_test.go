package localmix

import (
	"math"
	"testing"

	"repro/internal/core"
)

const eps = 1.0 / (8 * math.E)

// TestDistributedSweepFacade exercises the public sweep API: graph-wide
// distributed local-mixing and mixing-time sweeps with sampling and
// aggregate cost accounting.
func TestDistributedSweepFacade(t *testing.T) {
	g, err := RingOfCliques(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := DistributedGraphLocalMixingTime(g, 4, 0.1, SweepOptions{Workers: 2}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != g.N() || multi.Tau < 1 {
		t.Fatalf("sweep: %d results, τ=%d", len(multi.Results), multi.Tau)
	}
	if multi.TotalRounds <= 0 || multi.TotalMessages <= 0 || multi.TotalBits <= 0 {
		t.Errorf("sweep cost accounting incomplete: %+v", multi)
	}
	single, err := DistributedLocalMixingTime(g, multi.ArgMax, 4, 0.1, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if single.Tau != multi.Tau {
		t.Errorf("argmax source recomputed τ=%d, sweep says %d", single.Tau, multi.Tau)
	}

	mix, err := DistributedGraphMixingTime(g, 0.25, SweepOptions{Sample: 6}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(mix.Sources) != 6 {
		t.Fatalf("sampled %d sources, want 6", len(mix.Sources))
	}
	exactSweep, err := DistributedGraphExactLocalMixingTime(g, 4, 0.1, SweepOptions{Sources: []int{0, 7}}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(exactSweep.Results) != 2 {
		t.Fatalf("explicit-source sweep: %d results", len(exactSweep.Results))
	}
	// Each sweep entry runs its own algorithm per source.
	for sw, m := range map[*DistributedSweepResult]core.Mode{
		multi: core.ApproxLocal, mix: core.MixTime, exactSweep: core.ExactLocal} {
		for _, r := range sw.Results {
			if r.Mode != m {
				t.Fatalf("sweep ran %s per source, want %s", r.Mode, m)
			}
		}
	}
}

// TestFacadeEndToEnd walks the whole public API exactly as the README
// advertises: generate, oracle, distributed, gossip, coverage.
func TestFacadeEndToEnd(t *testing.T) {
	g, err := Barbell(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 96 {
		t.Fatalf("n=%d", g.N())
	}

	tauMix, err := MixingTime(g, 0, eps, false, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LocalMixingTime(g, 0, 8, eps, LocalMixingOptions{MaxT: 1 << 20, Grid: true})
	if err != nil {
		t.Fatal(err)
	}
	if local.T >= tauMix {
		t.Errorf("local %d should be far below global %d", local.T, tauMix)
	}

	dist, err := DistributedLocalMixingTime(g, 0, 8, eps, WithIrregular(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if dist.Tau < 1 || dist.Tau > 2*local.T {
		t.Errorf("distributed τ̂=%d outside (0, 2·%d]", dist.Tau, local.T)
	}
	if dist.Stats.Rounds <= 0 {
		t.Error("no rounds accounted")
	}

	exactRes, err := DistributedExactLocalMixingTime(g, 0, 8, eps, WithIrregular(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.Tau < 1 {
		t.Error("exact variant returned nothing")
	}

	sp, err := PushPull(g, SpreadConfig{Beta: 8, Seed: 5, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if sp.RoundsToPartial <= 0 {
		t.Error("push–pull incomplete")
	}

	rng := NewRand(7)
	inst, err := RandomCoverageInstance(g.N(), g.N(), 5, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := DistributedMaxCoverage(g, inst, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Ratio < 0.5 {
		t.Errorf("coverage ratio %v implausibly low", cov.Ratio)
	}

	rounds, err := LeaderElection(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Error("leader election trivial")
	}
}

// TestFacadeEstimate runs Algorithm 1 through the façade and checks the
// distribution shape.
func TestFacadeEstimate(t *testing.T) {
	g, err := RingOfCliques(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateRWProbability(g, 0, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalMass() != est.Scale.One {
		t.Error("mass not conserved")
	}
	p := est.Float()
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σp = %v", sum)
	}
}

// TestGeneratorsExported spot-checks every re-exported generator.
func TestGeneratorsExported(t *testing.T) {
	rng := NewRand(1)
	checks := []struct {
		name string
		f    func() (*Graph, error)
	}{
		{"complete", func() (*Graph, error) { return Complete(8) }},
		{"path", func() (*Graph, error) { return Path(8) }},
		{"cycle", func() (*Graph, error) { return Cycle(8) }},
		{"star", func() (*Graph, error) { return Star(8) }},
		{"torus", func() (*Graph, error) { return Torus(3, 3) }},
		{"grid", func() (*Graph, error) { return Grid(3, 3) }},
		{"hypercube", func() (*Graph, error) { return Hypercube(3) }},
		{"lollipop", func() (*Graph, error) { return Lollipop(4, 3) }},
		{"dumbbell", func() (*Graph, error) { return Dumbbell(4, 1) }},
		{"barbell", func() (*Graph, error) { return Barbell(3, 4) }},
		{"ringcliques", func() (*Graph, error) { return RingOfCliques(3, 4) }},
		{"randomregular", func() (*Graph, error) { return RandomRegular(12, 3, rng) }},
		{"ringexpanders", func() (*Graph, error) { return RingOfExpanders(3, 10, 4, rng) }},
		{"erdosrenyi", func() (*Graph, error) { return ErdosRenyi(16, 0.4, rng) }},
	}
	for _, c := range checks {
		g, err := c.f()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", c.name)
		}
	}
}

// TestBuilderExported exercises the re-exported Builder.
func TestBuilderExported(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("built n=%d m=%d", g.N(), g.M())
	}
}
