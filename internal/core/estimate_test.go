package core

import (
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/exact"
	"repro/internal/gen"
)

// TestEstimateSparseFootprint: after ℓ rounds Algorithm 1 has moved mass
// only inside the ℓ-ball around the source, so a run must pay for the
// vertices it touches, not for n. On a 100×100 torus at ℓ = 16 (545 of
// 10^4 vertices reached) the engine steps only holders of mass, and in
// round ℓ+1 only the nodes mass reached; dormant nodes are never created,
// and contexts, stamps and inboxes follow the ball: at most 2n Step calls
// and 64 heap bytes per vertex, the n-entry W's 8 included, with W
// bit-identical to the centralized fixed-point walk, ℓ+1 rounds, and the
// same counts at every worker count.
func TestEstimateSparseFootprint(t *testing.T) {
	g, err := gen.Torus(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 16
	n := g.N()
	var first *congest.Stats
	for _, workers := range []int{1, 2, 4} {
		cfg := Config{Lazy: true}
		cfg.Engine.Workers = workers
		var est *RWEstimate
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			if est, err = EstimateRWProbability(g, 0, ell, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if perVertex := float64(best) / float64(n); perVertex > 64 {
			t.Errorf("workers=%d: %.0f B per vertex allocated, want ≤ 64", workers, perVertex)
		}
		st := est.Stats
		if st.ActiveSteps > 2*int64(n) {
			t.Errorf("workers=%d: ActiveSteps = %d, want ≤ 2n = %d", workers, st.ActiveSteps, 2*n)
		}
		if st.Rounds != ell+1 || !st.HaltedAll {
			t.Errorf("workers=%d: %d rounds (halted all: %t), want ℓ+1 = %d", workers, st.Rounds, st.HaltedAll, ell+1)
		}
		if first == nil {
			first = st
		} else if st.Messages != first.Messages || st.Bits != first.Bits || st.ActiveSteps != first.ActiveSteps {
			t.Errorf("workers=%d: messages/bits/steps %d/%d/%d, workers=1 %d/%d/%d", workers,
				st.Messages, st.Bits, st.ActiveSteps, first.Messages, first.Bits, first.ActiveSteps)
		}
		fw, err := exact.NewFixedWalk(g, 0, est.Scale, true)
		if err != nil {
			t.Fatal(err)
		}
		fw.StepN(ell)
		for u, want := range fw.W() {
			if est.W[u] != want {
				t.Fatalf("workers=%d node %d: W = %d, want %d", workers, u, est.W[u], want)
			}
		}
	}
}
