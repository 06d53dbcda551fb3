package exact

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/walkkernel"
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

// GraphLocalMixing computes τ(β, ε) over the given sources (all vertices
// when sources is nil — the paper notes this costs an n-factor; the sources
// parameter is its suggested sampling mitigation). Sources are processed in
// parallel by a worker pool of goroutines, one independent walk each, all
// sharing one immutable walk kernel; the per-source walks run serially
// (o.Workers is overridden to 1) since the source pool already saturates
// the CPUs.
func GraphLocalMixing(g *graph.Graph, beta, eps float64, o LocalOptions, sources []int) (*GraphLocalResult, error) {
	sources, workers, err := graphLocalPlan(g, o, sources)
	if err != nil {
		return nil, err
	}
	if workers > 1 {
		o.Workers = 1
	}
	kern, err := localKernel(g, beta, eps, o)
	if err != nil {
		return nil, err
	}
	return graphLocalMixingOn(context.Background(), g, kern, beta, eps, o, sources, workers)
}

// graphLocalPlan resolves and validates the source list and the
// source-pool width (shared with the kernel-reusing entry point).
func graphLocalPlan(g *graph.Graph, o LocalOptions, sources []int) ([]int, int, error) {
	if sources == nil {
		sources = make([]int, g.N())
		for i := range sources {
			sources[i] = i
		}
	}
	if len(sources) == 0 {
		return nil, 0, fmt.Errorf("exact: GraphLocalMixing needs at least one source")
	}
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, 0, fmt.Errorf("exact: source %d out of range [0,%d)", s, g.N())
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if o.Workers > 0 {
		workers = o.Workers
	}
	if workers > len(sources) {
		workers = len(sources)
	}
	return sources, workers, nil
}

// graphLocalMixingOn runs the source pool on an already-built kernel. The
// caller has forced o.Workers to 1 when the pool is parallel (the source
// pool already saturates the CPUs; results are worker-invariant either
// way).
func graphLocalMixingOn(ctx context.Context, g *graph.Graph, kern *walkkernel.Kernel, beta, eps float64, o LocalOptions, sources []int, workers int) (*GraphLocalResult, error) {
	type outcome struct {
		idx int // position in sources
		tau int
		err error
	}
	in := make(chan int)
	out := make(chan outcome, len(sources))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range in {
				// Cancellation propagates into each per-source step loop;
				// the first cancelled source surfaces the context error.
				res, err := localMixingOn(ctx, g, kern, sources[i], beta, eps, o)
				if err != nil {
					out <- outcome{idx: i, err: err}
					continue
				}
				out <- outcome{idx: i, tau: res.T}
			}
		}()
	}
	go func() {
		for i := range sources {
			in <- i
		}
		close(in)
		wg.Wait()
		close(out)
	}()
	taus := make([]int, len(sources))
	for oc := range out {
		if oc.err != nil {
			return nil, fmt.Errorf("exact: GraphLocalMixing source %d: %w", sources[oc.idx], oc.err)
		}
		taus[oc.idx] = oc.tau
	}
	// The maximum is taken in source order, not arrival order, so ArgMax
	// is the first maximizing source for every worker count.
	res := &GraphLocalResult{Tau: -1, PerSource: make([]SourceTau, len(sources))}
	for i, tau := range taus {
		res.PerSource[i] = SourceTau{Source: sources[i], Tau: tau}
		if tau > res.Tau {
			res.Tau, res.ArgMax = tau, sources[i]
		}
	}
	sort.Slice(res.PerSource, func(i, j int) bool { return res.PerSource[i].Source < res.PerSource[j].Source })
	return res, nil
}
