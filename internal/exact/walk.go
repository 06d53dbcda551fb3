package exact

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/walkkernel"
)

// Walk evolves the probability distribution of a random walk from a single
// source. It implements exactly the chain the paper analyzes: the simple
// walk P(u,v) = 1/d(u) for neighbors, or the lazy walk that stays put with
// probability 1/2 (footnote 5; required on bipartite graphs).
type Walk = walkkernel.Walk

// NewWalk starts a walk at source on a fresh kernel: p_0 = e_source.
func NewWalk(g *graph.Graph, source int, lazy bool) (*Walk, error) {
	k, err := NewKernel(g, 0)
	if err != nil {
		return nil, err
	}
	return newWalkOn(g, k, source, lazy)
}

// newWalkOn starts a walk on an already-built kernel.
func newWalkOn(g *graph.Graph, k *walkkernel.Kernel, source int, lazy bool) (*Walk, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("exact: source %d out of range [0,%d)", source, g.N())
	}
	return k.NewWalk(source, lazy), nil
}

// Stationary returns π(v) = d(v)/2m, the stationary distribution of both the
// simple and the lazy walk on a connected graph.
func Stationary(g *graph.Graph) []float64 {
	pi := make([]float64, g.N())
	twoM := float64(2 * g.M())
	for v := 0; v < g.N(); v++ {
		pi[v] = float64(g.Degree(v)) / twoM
	}
	return pi
}

// L1 returns ‖a − b‖₁.
func L1(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("exact: L1 length mismatch")
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// RestrictedL1 returns ‖p_S − target_S‖₁ over the vertices marked in
// members: Σ_{v∈S} |p(v) − target(v)|. This is the Definition 2 distance
// when target is π_S.
func RestrictedL1(p, target []float64, members []bool) float64 {
	s := 0.0
	for v, in := range members {
		if in {
			s += math.Abs(p[v] - target[v])
		}
	}
	return s
}

// ErrNoMixing is returned when the walk does not reach the requested L1
// threshold within the step budget.
var ErrNoMixing = errors.New("exact: walk did not mix within the step budget")

// ErrBipartiteNonLazy rejects the simple (non-lazy) walk on a bipartite
// graph up front: its distribution oscillates between the two sides forever
// and never converges to π (the paper's footnote 5 prescribes the lazy
// walk), so without the guard a mixing search burns its whole step budget
// and then misreports the structural impossibility as ErrNoMixing. Every
// oracle entry point fails fast with this error instead.
var ErrBipartiteNonLazy = errors.New("exact: simple walk does not mix on a bipartite graph; use lazy=true (footnote 5)")

// checkLazyChain is the shared guard. The empty graph has no walk to
// oscillate, so it passes.
func checkLazyChain(g *graph.Graph, lazy bool) error {
	if !lazy && g.N() > 0 && g.IsBipartite() {
		return ErrBipartiteNonLazy
	}
	return nil
}

// checkMixing is the mixing oracles' parameter check.
func checkMixing(g *graph.Graph, eps float64, lazy bool) error {
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("exact: MixingTime needs ε ∈ (0,1), got %g", eps)
	}
	return checkLazyChain(g, lazy)
}

// MixingTime returns τ_mix_s(ε) (Definition 1): MixingTimeKernel on a
// fresh kernel.
func MixingTime(g *graph.Graph, source int, eps float64, lazy bool, maxT int) (int, error) {
	if err := checkMixing(g, eps, lazy); err != nil {
		return 0, err
	}
	k, err := NewKernel(g, 0)
	if err != nil {
		return 0, err
	}
	return MixingTimeKernel(context.Background(), g, k, source, eps, lazy, maxT)
}

// GraphMixingTime returns τ_mix(ε) = max_s τ_mix_s(ε):
// GraphMixingTimeKernel on a fresh kernel.
func GraphMixingTime(g *graph.Graph, eps float64, lazy bool, maxT int) (int, error) {
	if err := checkMixing(g, eps, lazy); err != nil {
		return 0, err
	}
	k, err := NewKernel(g, 0)
	if err != nil {
		return 0, err
	}
	return GraphMixingTimeKernel(context.Background(), g, k, eps, lazy, maxT)
}
