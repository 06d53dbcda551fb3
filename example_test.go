package localmix_test

import (
	"fmt"

	localmix "repro"
)

// The Figure 1 separation: mixing time grows with β², local mixing stays
// constant.
func ExampleLocalMixingTime() {
	g, _ := localmix.Barbell(8, 12) // 8 cliques of 12 vertices
	eps := 1.0 / 21.746
	local, _ := localmix.LocalMixingTime(g, 0, 8, eps,
		localmix.LocalMixingOptions{MaxT: 1 << 20, Grid: true})
	mix, _ := localmix.MixingTime(g, 0, eps, false, 1<<20)
	fmt.Printf("local mixing time: %d (witness set size %d)\n", local.T, local.R)
	fmt.Printf("mixing time: %d\n", mix)
	// Output:
	// local mixing time: 2 (witness set size 12)
	// mixing time: 3382
}

// Running the paper's distributed Algorithm 2 in a simulated CONGEST
// network.
func ExampleDistributedLocalMixingTime() {
	g, _ := localmix.RingOfCliques(8, 12) // exactly 11-regular
	res, _ := localmix.DistributedLocalMixingTime(g, 0, 8, 0.15, localmix.WithSeed(1))
	fmt.Printf("tau = %d with witness size %d\n", res.Tau, res.R)
	fmt.Printf("all nodes halted: %v\n", res.Stats.HaltedAll)
	// Output:
	// tau = 1 with witness size 12
	// all nodes halted: true
}

// Algorithm 1 standalone: the fixed-point estimate of p_ℓ conserves mass
// exactly.
func ExampleEstimateRWProbability() {
	g, _ := localmix.Complete(16)
	est, _ := localmix.EstimateRWProbability(g, 0, 3, false)
	fmt.Printf("rounds used: %d\n", est.Stats.Rounds)
	fmt.Printf("mass conserved: %v\n", est.TotalMass() == est.Scale.One)
	// Output:
	// rounds used: 4
	// mass conserved: true
}

// A multi-source sweep: the graph-wide τ(β,ε) = max_v τ_v of Definition 2,
// computed from every vertex on the parallel sweep engine. Results are
// identical for every SweepOptions.Workers value, so the output is stable.
func ExampleDistributedGraphLocalMixingTime() {
	g, _ := localmix.RingOfCliques(8, 12)
	multi, _ := localmix.DistributedGraphLocalMixingTime(g, 8, 0.15,
		localmix.SweepOptions{Workers: 2}, localmix.WithSeed(1))
	fmt.Printf("graph-wide tau = %d over %d sources\n", multi.Tau, len(multi.Sources))
	fmt.Printf("argmax source: %d\n", multi.ArgMax)
	// Output:
	// graph-wide tau = 1 over 96 sources
	// argmax source: 0
}

// Footnote-6 sampling: a deterministic subset of sources instead of all n.
func ExampleDistributedGraphMixingTime() {
	g, _ := localmix.RingOfCliques(6, 8)
	multi, _ := localmix.DistributedGraphMixingTime(g, 0.15,
		localmix.SweepOptions{Sample: 8, Workers: 2}, localmix.WithSeed(1), localmix.WithLazy())
	fmt.Printf("sampled %d of %d sources, tau_mix = %d\n", len(multi.Sources), g.N(), multi.Tau)
	// Output:
	// sampled 8 of 48 sources, tau_mix = 319
}

// A dynamic network: Algorithm 2 with the walk evolving under seeded
// edge-Markov churn. A churn-free model reproduces the static answer; real
// churn can only displace the walk, never break determinism.
func ExampleDistributedLocalMixingTime_churn() {
	g, _ := localmix.RingOfCliques(8, 12)
	churn, _ := localmix.EdgeMarkovChurn(g, 1, 0.2, 0.5)
	res, _ := localmix.DistributedLocalMixingTime(g, 0, 8, 0.15,
		localmix.WithSeed(1), localmix.WithLazy(), localmix.WithTopology(churn))
	fmt.Printf("tau under churn = %d with witness size %d\n", res.Tau, res.R)
	fmt.Printf("edges toggled: %v\n", res.Stats.TopologyChanges > 0)
	// Output:
	// tau under churn = 1 with witness size 12
	// edges toggled: true
}

// A single random walk by token forwarding under churn: hops over vanished
// edges bounce and are restarted (Das Sarma et al.), visible as Retries.
func ExampleDynamicWalk() {
	g, _ := localmix.RingOfCliques(8, 12)
	churn, _ := localmix.EdgeMarkovChurn(g, 1, 0.2, 0.5)
	walk, _ := localmix.DynamicWalk(g, 0, 64,
		localmix.WithSeed(1), localmix.WithTopology(churn))
	fmt.Printf("64-step walk: %d rounds, %d churn retries\n", walk.Rounds, walk.Retries)
	// Output:
	// 64-step walk: 95 rounds, 18 churn retries
}

// Partial information spreading with the Theorem 3 termination rule.
func ExamplePushPull() {
	g, _ := localmix.Barbell(8, 16)
	res, _ := localmix.PushPull(g, localmix.SpreadConfig{Beta: 8, Seed: 42, FixedRounds: 21})
	target := g.N() / 8
	fmt.Printf("after %d rounds, every node holds at least n/beta = %d tokens: %v\n",
		res.Rounds, target, res.MinTokensPerNode >= target)
	// Output:
	// after 21 rounds, every node holds at least n/beta = 16 tokens: true
}
