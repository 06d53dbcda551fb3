package spread

import (
	"testing"

	"repro/internal/gen"
)

func TestRunCongestReachesPartial(t *testing.T) {
	g, err := gen.Barbell(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCongest(g, Config{Beta: 8, Seed: 2, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToPartial <= 0 {
		t.Fatal("CONGEST gossip never reached partial spreading")
	}
	target := g.N() / 8
	if res.MinTokensPerNode < target || res.MinNodesPerToken < target {
		t.Errorf("final state below target: held=%d reach=%d", res.MinTokensPerNode, res.MinNodesPerToken)
	}
}

// TestCongestSlowerThanLocal: the bandwidth constraint must cost real
// rounds — CONGEST partial spreading is strictly slower than LOCAL
// (footnote 10's n/β term).
func TestCongestSlowerThanLocal(t *testing.T) {
	g, err := gen.Barbell(8, 32) // n/β = 32 tokens must arrive one at a time
	if err != nil {
		t.Fatal(err)
	}
	cg, err := RunCongest(g, Config{Beta: 8, Seed: 3, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Run(g, Config{Beta: 8, Seed: 3, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if cg.RoundsToPartial <= 2*lc.RoundsToPartial {
		t.Errorf("CONGEST (%d rounds) should be well above LOCAL (%d rounds) at n/β=32",
			cg.RoundsToPartial, lc.RoundsToPartial)
	}
	// And it must be at least the trivial information-theoretic bound:
	// a node needs ≥ n/β tokens and starts with 1.
	if cg.RoundsToPartial < 8 {
		t.Errorf("CONGEST rounds %d below any plausible token-arrival bound", cg.RoundsToPartial)
	}
}

func TestRunCongestFixedRounds(t *testing.T) {
	g, _ := gen.Complete(32)
	res, err := RunCongest(g, Config{Beta: 4, Seed: 4, FixedRounds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 30 {
		t.Errorf("fixed run overran: %d rounds", res.Rounds)
	}
	if res.MinTokensPerNode < 8 {
		t.Errorf("30 rounds on K32 should collect ≥ 8 tokens, got %d", res.MinTokensPerNode)
	}
}

func TestRunCongestValidation(t *testing.T) {
	g, _ := gen.Complete(8)
	if _, err := RunCongest(g, Config{Beta: 0.2}); err == nil {
		t.Error("β < 1 accepted")
	}
}

func TestRunCongestDeterministic(t *testing.T) {
	g, _ := gen.RingOfCliques(4, 8)
	a, err := RunCongest(g, Config{Beta: 4, Seed: 5, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCongest(g, Config{Beta: 4, Seed: 5, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.RoundsToPartial != b.RoundsToPartial || a.Messages != b.Messages {
		t.Error("same seed, different CONGEST gossip outcome")
	}
}

// TestRunCongestDeterministicAcrossWorkers: the worker count of the round
// engine must not change the outcome of the bandwidth-constrained variant.
func TestRunCongestDeterministicAcrossWorkers(t *testing.T) {
	g, err := gen.RingOfCliques(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		res, err := RunCongest(g, Config{Beta: 4, Seed: 3, Workers: workers, StopAtPartial: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if a.RoundsToPartial != b.RoundsToPartial || a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Errorf("worker count changed the outcome: %+v vs %+v", a, b)
	}
}
