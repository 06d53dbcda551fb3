// Command dynamic demonstrates distributed runs on dynamic networks: the
// same ring-of-cliques graph is solved by the distributed Algorithm 2 on a
// static network and, through WithTopology, under two seeded churn models, and a token walk shows
// the per-hop cost of edge loss. Everything is deterministic: rerunning
// prints the same numbers.
package main

import (
	"fmt"
	"log"

	localmix "repro"
)

func main() {
	g, err := localmix.RingOfCliques(8, 12) // exactly 11-regular
	if err != nil {
		log.Fatal(err)
	}
	const (
		beta = 8
		eps  = 0.15
		seed = 1
	)
	opts := []localmix.DistributedOption{localmix.WithSeed(seed), localmix.WithLazy()}

	static, err := localmix.DistributedLocalMixingTime(g, 0, beta, eps, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static       τ=%d  rounds=%d\n", static.Tau, static.Stats.Rounds)

	// Edge-Markov churn: each non-backbone edge flips on→off with
	// probability 0.2 and off→on with 0.5, independently per round. A BFS
	// backbone keeps every round's topology connected.
	markov, err := localmix.EdgeMarkovChurn(g, seed, 0.2, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	churned, err := localmix.DistributedLocalMixingTime(g, 0, beta, eps,
		append(opts, localmix.WithTopology(markov))...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edge-markov  τ=%d  rounds=%d  toggles=%d\n",
		churned.Tau, churned.Stats.Rounds, churned.Stats.TopologyChanges)

	// T-interval resampling: every 8 rounds, keep each non-backbone edge
	// with probability 0.7 and hold the topology fixed in between.
	interval, err := localmix.IntervalChurn(g, seed, 8, 0.7)
	if err != nil {
		log.Fatal(err)
	}
	held, err := localmix.DistributedLocalMixingTime(g, 0, beta, eps,
		append(opts, localmix.WithTopology(interval))...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interval     τ=%d  rounds=%d  toggles=%d\n",
		held.Tau, held.Stats.Rounds, held.Stats.TopologyChanges)

	// A single 64-step walk by token forwarding under the Markov churn: the
	// walker picks superset neighbors blindly, and every hop that lands on
	// a vanished edge bounces back and is retried next round.
	walk, err := localmix.DynamicWalk(g, 0, 64,
		localmix.WithSeed(seed), localmix.WithTopology(markov))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("token walk   end=%d  rounds=%d  retries=%d\n", walk.End, walk.Rounds, walk.Retries)
}
