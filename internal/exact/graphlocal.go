package exact

import (
	"context"

	"repro/internal/graph"
)

// GraphLocalResult reports the graph-wide local mixing time
// τ(β, ε) = max_v τ_v(β, ε) (Definition 2's final clause, the quantity
// Theorem 3's push–pull bound is stated in).
type GraphLocalResult struct {
	// Tau is max over the examined sources.
	Tau int
	// ArgMax is the first source, in the order examined, attaining it.
	ArgMax int
	// PerSource lists (source, τ_source) for every examined source,
	// ascending by source id.
	PerSource []SourceTau
}

// SourceTau pairs a source with its local mixing time.
type SourceTau struct {
	Source int
	Tau    int
}

// GraphLocalMixing returns τ(β, ε) = max_v τ_v(β, ε) over the sources:
// GraphLocalMixingKernel on a fresh kernel. The kernel steps serially: the
// source pool is the parallelism.
func GraphLocalMixing(g *graph.Graph, beta, eps float64, o LocalOptions, sources []int) (*GraphLocalResult, error) {
	if err := checkLocal(g, beta, eps, o); err != nil {
		return nil, err
	}
	k, err := NewKernel(g, 1)
	if err != nil {
		return nil, err
	}
	return GraphLocalMixingKernel(context.Background(), g, k, beta, eps, o, sources)
}
