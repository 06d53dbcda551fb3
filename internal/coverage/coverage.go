package coverage

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/spread"
)

// Instance is a maximum-coverage instance distributed over graph nodes.
type Instance struct {
	// Universe is the number of elements.
	Universe int
	// Sets[u] is the element set owned by node u.
	Sets []*bitset.Set
	// K is the number of sets to pick.
	K int
}

// RandomInstance builds an instance where each node draws `perNode`
// elements uniformly from the universe.
func RandomInstance(n, universe, perNode, k int, rng *rand.Rand) (*Instance, error) {
	if n < 1 || universe < 1 || perNode < 1 || k < 1 || k > n {
		return nil, errors.New("coverage: bad instance parameters")
	}
	inst := &Instance{Universe: universe, Sets: make([]*bitset.Set, n), K: k}
	for u := 0; u < n; u++ {
		s := bitset.New(universe)
		for j := 0; j < perNode; j++ {
			s.Add(rng.Intn(universe))
		}
		inst.Sets[u] = s
	}
	return inst, nil
}

// Greedy runs the classical greedy max-coverage over an arbitrary candidate
// collection: repeatedly pick the set covering the most uncovered elements.
// Returns the chosen candidate indices and the covered-element count.
func Greedy(universe int, candidates []*bitset.Set, k int) ([]int, int) {
	covered := bitset.New(universe)
	var chosen []int
	used := make([]bool, len(candidates))
	for iter := 0; iter < k; iter++ {
		bestGain, bestIdx := -1, -1
		for i, s := range candidates {
			if used[i] || s == nil {
				continue
			}
			gain := 0
			s.ForEach(func(e int) {
				if !covered.Contains(e) {
					gain++
				}
			})
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
		candidates[bestIdx].ForEach(func(e int) { covered.Add(e) })
	}
	return chosen, covered.Count()
}

// Result reports a distributed max-coverage run.
type Result struct {
	// BestCovered is the best coverage found by any node's local greedy.
	BestCovered int
	// CentralCovered is the centralized greedy coverage (the quality bar).
	CentralCovered int
	// Ratio is BestCovered/CentralCovered.
	Ratio float64
	// SpreadRounds is the number of push–pull rounds used.
	SpreadRounds int
	// MinSetsSeen is the minimum number of candidate sets any node saw.
	MinSetsSeen int
}

// Distributed runs the protocol: push–pull until (·, β)-partial spreading,
// then local greedy at every node over the sets it has seen.
func Distributed(g *graph.Graph, inst *Instance, beta float64, seed int64) (*Result, error) {
	n := g.N()
	if len(inst.Sets) != n {
		return nil, fmt.Errorf("coverage: instance has %d sets for %d nodes", len(inst.Sets), n)
	}
	// Phase 1: spread ownership. Token t = "node t's set". We reuse the
	// spread simulator; its token bitsets record which sets each node knows.
	sp, err := spread.RunCollecting(g, spread.Config{Beta: beta, Seed: seed, StopAtPartial: true})
	if err != nil {
		return nil, err
	}
	// Phase 2: local greedy everywhere.
	best := -1
	minSeen := n + 1
	for u := 0; u < n; u++ {
		known := sp.Known[u]
		seen := known.Count()
		if seen < minSeen {
			minSeen = seen
		}
		cand := make([]*bitset.Set, 0, seen)
		known.ForEach(func(t int) { cand = append(cand, inst.Sets[t]) })
		_, cov := Greedy(inst.Universe, cand, inst.K)
		if cov > best {
			best = cov
		}
	}
	// Quality bar: centralized greedy over all sets.
	all := make([]*bitset.Set, n)
	copy(all, inst.Sets)
	_, central := Greedy(inst.Universe, all, inst.K)
	ratio := 0.0
	if central > 0 {
		ratio = float64(best) / float64(central)
	}
	return &Result{
		BestCovered:    best,
		CentralCovered: central,
		Ratio:          ratio,
		SpreadRounds:   sp.Result.Rounds,
		MinSetsSeen:    minSeen,
	}, nil
}
