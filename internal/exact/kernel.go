package exact

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/walkkernel"
)

// This file holds the one implementation of each oracle quantity: the
// kernel forms MixingTimeKernel, GraphMixingTimeKernel, LocalMixingKernel
// and GraphLocalMixingKernel. The kernel-building forms (MixingTime,
// GraphMixingTime, LocalMixing, GraphLocalMixing) only check their
// parameters, build a kernel with NewKernel and call the kernel form here.
//
// The worker count lives on the kernel: NewKernel(g, w) fixes the walk
// parallelism, and every result is bit-identical for every w. A caller that
// answers many requests over one graph (internal/service's GraphCache)
// builds the kernel once and threads it through the kernel forms.
//
// Each kernel form takes a context: the step loops check it cooperatively
// (once per walk step — the natural grain, since every step is at least one
// full edge pass), so a serving layer can enforce per-request deadlines on
// the centralized oracles. Cancellation aborts with an error wrapping
// ctx.Err(); it never changes a completed result.

// NewKernel validates the graph and builds the shared walk kernel
// (≤ 0 workers means GOMAXPROCS; the count never changes oracle results).
func NewKernel(g *graph.Graph, workers int) (*walkkernel.Kernel, error) {
	if g.N() > 0 && g.MinDegree() == 0 {
		return nil, errors.New("exact: graph has isolated vertices")
	}
	return walkkernel.New(g, workers), nil
}

// MixingTimeKernel returns τ_mix_s(ε) = min{t : ‖p_t − π‖₁ < ε}
// (Definition 1), searching up to maxT steps. Lemma 1 guarantees the
// distance is monotone, so the first hit is the answer.
func MixingTimeKernel(ctx context.Context, g *graph.Graph, k *walkkernel.Kernel, source int, eps float64, lazy bool, maxT int) (int, error) {
	if err := checkMixing(g, eps, lazy); err != nil {
		return 0, err
	}
	w, err := newWalkOn(g, k, source, lazy)
	if err != nil {
		return 0, err
	}
	pi := Stationary(g)
	for t := 0; t <= maxT; t++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("exact: mixing time cancelled at step %d (source=%d): %w", t, source, err)
		}
		if L1(w.P(), pi) < eps {
			return t, nil
		}
		w.Step()
	}
	return 0, fmt.Errorf("%w (maxT=%d, source=%d)", ErrNoMixing, maxT, source)
}

// GraphMixingTimeKernel returns τ_mix(ε) = max_s τ_mix_s(ε) over all
// sources. Sources are evolved in batches of walkkernel.BatchWidth lanes —
// one edge pass advances a whole batch — instead of n serial walks. Per
// batch only the predicate "has the slowest lane mixed?" is evaluated per
// step: by Lemma 1 every lane's distance is monotone, so the first step at
// which all lanes are below ε is exactly max_b τ_b.
func GraphMixingTimeKernel(ctx context.Context, g *graph.Graph, k *walkkernel.Kernel, eps float64, lazy bool, maxT int) (int, error) {
	if err := checkMixing(g, eps, lazy); err != nil {
		return 0, err
	}
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	pi := Stationary(g)
	width := min(walkkernel.BatchWidth, n)
	mw := k.NewMultiWalk(width, lazy)
	sources := make([]int, width)
	dist := make([]float64, width)
	worst := 0
	for lo := 0; lo < n; lo += width {
		for b := 0; b < width; b++ {
			s := lo + b
			if s >= n {
				s = lo // pad the final batch with duplicate lanes
			}
			sources[b] = s
		}
		mw.Reset(sources)
		mixed := false
		for t := 0; t <= maxT; t++ {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("exact: graph mixing sweep cancelled at source batch %d, step %d: %w", lo, t, err)
			}
			if mw.AllBelow(pi, eps) {
				worst = max(worst, t)
				mixed = true
				break
			}
			if t < maxT {
				mw.Step()
			}
		}
		if !mixed {
			// Identify a witness lane for the error message.
			mw.L1ToTarget(pi, dist)
			for b := 0; b < width; b++ {
				if dist[b] >= eps {
					return 0, fmt.Errorf("%w (maxT=%d, source=%d)", ErrNoMixing, maxT, sources[b])
				}
			}
		}
	}
	return worst, nil
}

// LocalMixingKernel computes the local mixing time τ_s(β, ε) of
// Definition 2 with the uniform target 1/|S| (the regular-graph form, which
// is also precisely the quantity Algorithm 2 computes on any graph). For
// each step t it asks: does there exist a set size R ≥ ⌈n/β⌉ whose R
// best-matching vertices have Σ_{v∈S} |p_t(v) − 1/R| below threshold?
func LocalMixingKernel(ctx context.Context, g *graph.Graph, k *walkkernel.Kernel, source int, beta, eps float64, o LocalOptions) (*LocalResult, error) {
	if err := checkLocal(g, beta, eps, o); err != nil {
		return nil, err
	}
	return localMixingOn(ctx, g, k, source, beta, eps, o)
}

// GraphLocalMixingKernel computes τ(β, ε) over the given sources (all
// vertices when sources is nil — the paper notes this costs an n-factor;
// the sources parameter is its suggested sampling mitigation). Sources are
// processed in parallel by a pool of o.Workers goroutines (≤ 0 means
// GOMAXPROCS), one independent walk each, all sharing the kernel; with a
// parallel pool the per-source candidate-size scans run serially, since
// the pool already saturates the CPUs.
func GraphLocalMixingKernel(ctx context.Context, g *graph.Graph, k *walkkernel.Kernel, beta, eps float64, o LocalOptions, sources []int) (*GraphLocalResult, error) {
	if err := checkLocal(g, beta, eps, o); err != nil {
		return nil, err
	}
	if sources == nil {
		sources = make([]int, g.N())
		for i := range sources {
			sources[i] = i
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("exact: GraphLocalMixing needs at least one source")
	}
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("exact: source %d out of range [0,%d)", s, g.N())
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if o.Workers > 0 {
		workers = o.Workers
	}
	workers = min(workers, len(sources))
	if workers > 1 {
		o.Workers = 1
	}

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
				res, err := localMixingOn(ctx, g, k, sources[i], beta, eps, o)
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
