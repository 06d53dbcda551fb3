package exact

import (
	"fmt"

	"repro/internal/graph"
)

// MixingProfile returns ‖p_t − π‖₁ for t = 0..maxT — the global convergence
// trace. By Lemma 1 it is non-increasing (the property tests rely on this);
// contrast with the restricted distance of a fixed set, which is not (see
// LocalMixingProfile and examples/figure1).
func MixingProfile(g *graph.Graph, source int, lazy bool, maxT int) ([]float64, error) {
	if maxT < 0 {
		return nil, fmt.Errorf("exact: MixingProfile needs maxT ≥ 0")
	}
	w, err := NewWalk(g, source, lazy)
	if err != nil {
		return nil, err
	}
	pi := Stationary(g)
	prof := make([]float64, maxT+1)
	for t := 0; t <= maxT; t++ {
		prof[t] = L1(w.P(), pi)
		w.Step()
	}
	return prof, nil
}
