package exact

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/walkkernel"
)

// LocalOptions configures the exact local-mixing-time oracle.
type LocalOptions struct {
	// Lazy selects the lazy chain (needed on bipartite graphs).
	Lazy bool
	// MaxT is the step budget; the oracle fails with ErrNoMixing beyond it.
	MaxT int
	// Grid restricts the candidate set sizes to the (1+ε)-geometric grid
	// starting at ⌈n/β⌉, exactly like Algorithm 2's loop over R. When false
	// every integer size in [⌈n/β⌉, n] is examined (the literal
	// Definition 2 minimum).
	Grid bool
	// ThresholdMult scales the acceptance threshold: the test is
	// Σ < ThresholdMult·ε. Algorithm 2 uses 4 (Lemma 3); the plain
	// definition uses 1. Defaults to 1.
	ThresholdMult float64
	// RequireSource forces the witness set to contain the source, per the
	// letter of Definition 2. Algorithm 2 omits the constraint (it takes the
	// R smallest differences over all nodes); the default matches the
	// algorithm. Enabling it costs an extra O(n log n) per (t, R).
	RequireSource bool
	// Workers sets the width of the candidate-size scan and of
	// GraphLocalMixingKernel's source pool, and the kernel parallelism of
	// the kernel-building forms (≤ 0 means GOMAXPROCS). It never changes
	// results: the kernel's vertex blocks and the size scan's chunk grid
	// are schedule-independent.
	Workers int
}

// LocalResult reports an exact local-mixing-time computation.
type LocalResult struct {
	// T is the local mixing time τ_s(β, ε): the first step at which some
	// admissible set passes the L1 test.
	T int
	// R is the size of the witness set.
	R int
	// Dist is the restricted L1 distance achieved by the witness set.
	Dist float64
	// Set is the witness local-mixing set (vertex ids, ascending).
	Set []int
}

// LocalMixing returns τ_s(β, ε) (Definition 2) with a witness set:
// LocalMixingKernel on a fresh kernel.
func LocalMixing(g *graph.Graph, source int, beta float64, eps float64, o LocalOptions) (*LocalResult, error) {
	k, err := localKernel(g, beta, eps, o)
	if err != nil {
		return nil, err
	}
	return LocalMixingKernel(context.Background(), g, k, source, beta, eps, o)
}

// localKernel checks the local oracles' parameters and builds a kernel
// with o.Workers.
func localKernel(g *graph.Graph, beta, eps float64, o LocalOptions) (*walkkernel.Kernel, error) {
	if err := checkLocal(g, beta, eps, o); err != nil {
		return nil, err
	}
	return NewKernel(g, o.Workers)
}

// checkLocal is the local oracles' parameter check.
func checkLocal(g *graph.Graph, beta, eps float64, o LocalOptions) error {
	if beta < 1 {
		return fmt.Errorf("exact: LocalMixing needs β ≥ 1, got %g", beta)
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("exact: LocalMixing needs ε ∈ (0,1), got %g", eps)
	}
	if o.MaxT <= 0 {
		return fmt.Errorf("exact: LocalMixing needs MaxT > 0, got %d", o.MaxT)
	}
	return checkLazyChain(g, o.Lazy)
}

// localMixingOn is LocalMixingKernel past its parameter check. The
// context is checked once per walk step (each step pays a sort plus the
// candidate-size scan), so a service deadline aborts within one step.
func localMixingOn(ctx context.Context, g *graph.Graph, k *walkkernel.Kernel, source int, beta, eps float64, o LocalOptions) (*LocalResult, error) {
	w, err := newWalkOn(g, k, source, o.Lazy)
	if err != nil {
		return nil, err
	}
	threshold := eps
	if o.ThresholdMult > 0 {
		threshold = eps * o.ThresholdMult
	}
	sizes := CandidateSizes(g.N(), beta, o.Grid, eps)
	scratch := newWindowScratch(g.N(), scanWorkers(o.Workers, k))
	for t := 0; t <= o.MaxT; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("exact: local mixing cancelled at step %d (source=%d): %w", t, source, err)
		}
		if res := checkLocalAt(w.P(), source, sizes, threshold, o.RequireSource, scratch); res != nil {
			res.T = t
			return res, nil
		}
		w.Step()
	}
	return nil, fmt.Errorf("%w (local, maxT=%d, source=%d, β=%g)", ErrNoMixing, o.MaxT, source, beta)
}

// scanWorkers resolves the candidate-size scan width from the option and the
// kernel's block count (which already folds in GOMAXPROCS).
func scanWorkers(workers int, k *walkkernel.Kernel) int {
	if workers == 1 {
		return 1
	}
	return k.Blocks()
}

// LocalMixingProfile returns, for each t in [0, maxT], the best restricted
// L1 distance achievable by any admissible set size (used by experiments to
// plot convergence; the local distance is *not* monotone in t, unlike
// Lemma 1's global distance, which this makes observable).
func LocalMixingProfile(g *graph.Graph, source int, beta float64, eps float64, o LocalOptions) ([]float64, error) {
	k, err := localKernel(g, beta, eps, o)
	if err != nil {
		return nil, err
	}
	w, err := newWalkOn(g, k, source, o.Lazy)
	if err != nil {
		return nil, err
	}
	sizes := CandidateSizes(g.N(), beta, o.Grid, eps)
	scratch := newWindowScratch(g.N(), scanWorkers(o.Workers, k))
	prof := make([]float64, o.MaxT+1)
	for t := 0; t <= o.MaxT; t++ {
		scratch.load(w.P())
		best := math.Inf(1)
		for _, r := range sizes {
			d, _ := bestSetDist(w.P(), source, r, o.RequireSource, scratch, false)
			if d < best {
				best = d
			}
		}
		prof[t] = best
		w.Step()
	}
	return prof, nil
}

// CandidateSizes enumerates the set sizes examined: either every integer in
// [⌈n/β⌉, n], or the geometric grid ⌈(n/β)(1+step)^i⌉ capped at n
// (Algorithm 2's schedule), deduplicated and ascending.
func CandidateSizes(n int, beta float64, grid bool, step float64) []int {
	lo := int(math.Ceil(float64(n) / beta))
	if lo < 1 {
		lo = 1
	}
	if lo > n {
		lo = n
	}
	if !grid {
		sizes := make([]int, 0, n-lo+1)
		for r := lo; r <= n; r++ {
			sizes = append(sizes, r)
		}
		return sizes
	}
	est := int(math.Log(float64(n)/float64(lo))/math.Log1p(step)) + 3
	sizes := make([]int, 0, est)
	f := float64(lo)
	prev := -1
	for {
		r := int(math.Ceil(f))
		if r > n {
			break
		}
		if r != prev {
			sizes = append(sizes, r)
			prev = r
		}
		f *= 1 + step
	}
	if len(sizes) == 0 || sizes[len(sizes)-1] != n {
		sizes = append(sizes, n)
	}
	return sizes
}

// pid is one packed (probability, vertex id) pair of the sliding-window
// order. 16 bytes, so the sort moves one cache-friendly unit instead of
// chasing the permutation through p.
type pid struct {
	p  float64
	id int32
}

// cmpPid orders pairs by probability, breaking ties by vertex id so the
// order (and therefore any witness set cut at a tie) is canonical.
func cmpPid(a, b pid) int {
	switch {
	case a.p < b.p:
		return -1
	case a.p > b.p:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return 0
}

// windowScratch holds the reusable buffers for the sliding-window search.
type windowScratch struct {
	pairs  []pid     // (p, id) packed, ascending by (p, id) after load
	sorted []float64 // p in ascending order (pairs[i].p, for binary search)
	prefix []float64 // prefix sums of sorted
	spairs []pid     // (|p−τ|, id) scratch for RequireSource mode
	seeded bool      // pairs carry the previous step's order

	// Size-scan parallelism (checkLocalAt): fixed-grain chunks over the
	// candidate sizes, evaluated on the shared pool. Chunk results are
	// merged by minimum passing size — an exact comparison — so the scan is
	// schedule-independent.
	workers  int
	scan     scanJob
	scanWG   sync.WaitGroup
	scanBest []scanHit
}

func newWindowScratch(n, workers int) *windowScratch {
	if workers < 1 {
		workers = 1
	}
	return &windowScratch{
		pairs:   make([]pid, n),
		sorted:  make([]float64, n),
		prefix:  make([]float64, n+1),
		workers: workers,
	}
}

// load sorts the vertices by p value. The previous load's order seeds the
// pairs: one walk step perturbs p only locally, so the sequence is nearly
// sorted and pdqsort (slices.SortFunc) finishes in near-linear time,
// replacing the full interface-based sort.Sort of every step.
func (s *windowScratch) load(p []float64) {
	n := len(p)
	pairs := s.pairs[:n]
	if s.seeded {
		for i := range pairs {
			pairs[i].p = p[pairs[i].id]
		}
	} else {
		for i := range pairs {
			pairs[i] = pid{p: p[i], id: int32(i)}
		}
		s.seeded = true
	}
	slices.SortFunc(pairs, cmpPid)
	for i := range pairs {
		s.sorted[i] = pairs[i].p
	}
	s.prefix[0] = 0
	for i := 0; i < n; i++ {
		s.prefix[i+1] = s.prefix[i] + s.sorted[i]
	}
}

// scanChunk is the candidate-size grain of the parallel scan; chunks are
// fixed-size so the grid never depends on the worker count.
const scanChunk = 64

// scanHit records the best (smallest) passing size found in one chunk.
type scanHit struct {
	r int
	d float64
}

// scanJob evaluates a chunk range of candidate sizes against the threshold.
type scanJob struct {
	s         *windowScratch
	p         []float64
	sizes     []int
	threshold float64
}

func (j *scanJob) RunRange(lo, hi int32) {
	ci := int(lo) / scanChunk
	hit := scanHit{r: -1}
	for _, r := range j.sizes[lo:hi] {
		d, _ := bestSetDist(j.p, 0, r, false, j.s, false)
		if d < j.threshold {
			hit = scanHit{r: r, d: d}
			break // sizes ascend; the first pass in a chunk is its smallest
		}
	}
	j.s.scanBest[ci] = hit
}

// checkLocalAt tests whether any size in sizes passes the threshold for the
// current distribution p; it returns the witness with the smallest size that
// passes (matching Algorithm 2, which scans sizes in increasing order), or
// nil. In non-grid mode the size loop is O(n²) per step, so chunks of sizes
// are evaluated in parallel (the window evaluations only read the scratch).
func checkLocalAt(p []float64, source int, sizes []int, threshold float64, requireSource bool, s *windowScratch) *LocalResult {
	s.load(p)
	r, d := -1, math.Inf(1)
	if !requireSource && s.workers > 1 && len(sizes) >= 2*scanChunk {
		chunks := (len(sizes) + scanChunk - 1) / scanChunk
		if cap(s.scanBest) < chunks {
			s.scanBest = make([]scanHit, chunks)
		}
		s.scanBest = s.scanBest[:chunks]
		s.scan = scanJob{s: s, p: p, sizes: sizes, threshold: threshold}
		walkkernel.ParallelFor(&s.scanWG, &s.scan, len(sizes), scanChunk, s.workers)
		for _, hit := range s.scanBest {
			if hit.r >= 0 {
				r, d = hit.r, hit.d
				break // chunk order is size order; first hit is smallest
			}
		}
	} else {
		for _, rr := range sizes {
			// Evaluate without materializing the witness; only the (rare)
			// passing size pays for building its set.
			dd, _ := bestSetDist(p, source, rr, requireSource, s, false)
			if dd < threshold {
				r, d = rr, dd
				break
			}
		}
	}
	if r < 0 {
		return nil
	}
	_, set := bestSetDist(p, source, r, requireSource, s, true)
	sort.Ints(set)
	return &LocalResult{R: r, Dist: d, Set: set}
}

// bestSetDist returns the minimum of Σ_{v∈S} |p(v) − 1/R| over sets S of
// size exactly R (optionally constrained to contain source), together with
// the witness set when wantSet is set. The scratch must have been loaded
// with p (checkLocalAt does this; standalone callers must call s.load(p)).
//
// For the unconstrained case the optimal S is the R values closest to 1/R,
// which form a contiguous window of the value-sorted vertices; the window
// cost is evaluated in O(1) with prefix sums. The unconstrained path only
// reads the scratch, so concurrent evaluations of different sizes may share
// one loaded scratch.
func bestSetDist(p []float64, source, r int, requireSource bool, s *windowScratch, wantSet bool) (float64, []int) {
	n := len(p)
	if r < 1 || r > n {
		return math.Inf(1), nil
	}
	tau := 1 / float64(r)
	if requireSource {
		return bestSetDistWithSource(p, source, r, tau, s, wantSet)
	}
	// firstGE = first sorted index with value ≥ τ.
	firstGE := sort.SearchFloat64s(s.sorted[:n], tau)
	best := math.Inf(1)
	bestStart := 0
	for i := 0; i+r <= n; i++ {
		k := firstGE
		if k < i {
			k = i
		}
		if k > i+r {
			k = i + r
		}
		below := tau*float64(k-i) - (s.prefix[k] - s.prefix[i])
		above := (s.prefix[i+r] - s.prefix[k]) - tau*float64(i+r-k)
		cost := below + above
		if cost < best {
			best = cost
			bestStart = i
		}
	}
	if !wantSet {
		return best, nil
	}
	set := make([]int, r)
	for i := range set {
		set[i] = int(s.pairs[bestStart+i].id)
	}
	return best, set
}

// bestSetDistWithSource forces the source into the set: cost =
// |p(s) − τ| + sum of the R−1 smallest distances among the rest. The
// (distance, id) pairs are built in the reusable spairs scratch.
func bestSetDistWithSource(p []float64, source, r int, tau float64, s *windowScratch, wantSet bool) (float64, []int) {
	if cap(s.spairs) < len(p) {
		s.spairs = make([]pid, 0, len(p))
	}
	pairs := s.spairs[:0]
	for v := range p {
		if v == source {
			continue
		}
		pairs = append(pairs, pid{p: math.Abs(p[v] - tau), id: int32(v)})
	}
	slices.SortFunc(pairs, cmpPid)
	s.spairs = pairs
	cost := math.Abs(p[source] - tau)
	var set []int
	if wantSet {
		set = make([]int, 0, r)
		set = append(set, source)
	}
	for i := 0; i < r-1; i++ {
		cost += pairs[i].p
		if wantSet {
			set = append(set, int(pairs[i].id))
		}
	}
	return cost, set
}
