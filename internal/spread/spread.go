package spread

import (
	"errors"
	"fmt"
	mbits "math/bits"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bitset"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/walkkernel"
)

// Config controls a push–pull run.
type Config struct {
	// Beta is the spreading parameter: targets are n/β tokens per node and
	// n/β nodes per token.
	Beta float64
	// MaxRounds aborts the run (default 64·n).
	MaxRounds int
	// Seed drives all random neighbor choices.
	Seed int64
	// StopAtPartial stops as soon as (·, β)-partial spreading holds.
	// Otherwise the run continues to full information spreading.
	StopAtPartial bool
	// FixedRounds, when positive, runs exactly this many rounds and then
	// reports whatever was achieved (the Theorem 3 termination rule).
	FixedRounds int
	// Workers sets the engine parallelism of RunCongest and the
	// snapshot-phase parallelism of the direct simulator (Run); zero means
	// GOMAXPROCS. It never changes results.
	Workers int
}

// Result reports a push–pull run.
type Result struct {
	// RoundsToPartial is the first round at which (·, β)-partial spreading
	// held (-1 if never achieved within the run).
	RoundsToPartial int
	// RoundsToFull is the first round at which every node had every token
	// (-1 if the run stopped earlier).
	RoundsToFull int
	// Rounds is the total number of rounds executed.
	Rounds int
	// MinTokensPerNode and MinNodesPerToken describe the final state.
	MinTokensPerNode int
	MinNodesPerToken int
	// Messages counts the pairwise exchanges performed.
	Messages int64
	// Stats carries the congest engine's counters for RunCongest; nil for
	// the direct simulator.
	Stats *congest.Stats
}

// state is the in-memory gossip simulator. Push–pull needs no bandwidth
// accounting (LOCAL model), so a direct simulation is both faithful and
// fast; the congest engine is reserved for the CONGEST algorithms. The
// snapshot and choice buffers are allocated once and reused every
// round, and set merges run word-level, so the steady-state round loop is
// allocation-free.
type state struct {
	g      *graph.Graph
	tokens []*bitset.Set // tokens[u] = set of token ids node u holds
	snap   []*bitset.Set // reused pre-round snapshots of tokens
	choice []int32       // reused per-round neighbor choices
	reach  []int         // reach[t] = #nodes holding token t
	held   []int         // held[u] = #tokens node u holds
	rng    *rand.Rand

	// Snapshot-phase parallelism: the per-node CopyFrom is pure, so the
	// O(n²/64) words copied each round fan out over the shared walkkernel
	// pool without changing any result. The merge phase stays serial (the
	// chosen pairs conflict on both endpoints).
	workers int
	snapJ   snapJob
	snapWG  sync.WaitGroup
}

// snapJob copies the pre-round token snapshots for a node range.
type snapJob struct{ st *state }

func (j *snapJob) RunRange(lo, hi int32) {
	for u := lo; u < hi; u++ {
		j.st.snap[u].CopyFrom(j.st.tokens[u])
	}
}

// snapParallelMin is the node count below which the snapshot phase stays on
// one goroutine: under it the pool dispatch costs more than the copies.
const snapParallelMin = 2048

func newState(g *graph.Graph, seed int64, workers int) *state {
	n := g.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < snapParallelMin {
		workers = 1
	}
	st := &state{
		g:       g,
		tokens:  make([]*bitset.Set, n),
		snap:    make([]*bitset.Set, n),
		choice:  make([]int32, n),
		reach:   make([]int, n),
		held:    make([]int, n),
		rng:     rand.New(rand.NewSource(seed)),
		workers: workers,
	}
	st.snapJ.st = st
	for u := 0; u < n; u++ {
		st.tokens[u] = bitset.New(n)
		st.tokens[u].Add(u)
		st.snap[u] = bitset.New(n)
		st.reach[u] = 1
		st.held[u] = 1
	}
	return st
}

// round performs one synchronous push–pull round: every node picks a random
// neighbor; all chosen pairs merge token sets (both directions). Exchanges
// are applied simultaneously, as in the standard analysis: each pair merges
// the sets as they were at the start of the round.
func (st *state) round() int64 {
	n := st.g.N()
	for u := 0; u < n; u++ {
		row := st.g.Neighbors(u)
		st.choice[u] = row[st.rng.Intn(len(row))]
	}
	// Snapshot the pre-round sets so all exchanges are simultaneous: each
	// pair merges the sets as they stood at the start of the round.
	walkkernel.ParallelFor(&st.snapWG, &st.snapJ, n, 0, st.workers)
	var msgs int64
	for u := 0; u < n; u++ {
		v := int(st.choice[u])
		msgs += 2
		st.acquire(u, st.snap[v])
		st.acquire(v, st.snap[u])
	}
	return msgs
}

// acquire merges src's snapshot into node dst, maintaining reach counts.
// The merge is word-level: only genuinely new bits pay a per-token cost.
func (st *state) acquire(dst int, src *bitset.Set) {
	tok := st.tokens[dst]
	for wi, nw := 0, src.Words(); wi < nw; wi++ {
		w := src.Word(wi) &^ tok.Word(wi)
		if w == 0 {
			continue
		}
		tok.OrWord(wi, w)
		st.held[dst] += mbits.OnesCount64(w)
		base := wi << 6
		for w != 0 {
			st.reach[base+mbits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
}

func (st *state) minHeld() int {
	m := st.held[0]
	for _, h := range st.held[1:] {
		if h < m {
			m = h
		}
	}
	return m
}

func (st *state) minReach() int {
	m := st.reach[0]
	for _, r := range st.reach[1:] {
		if r < m {
			m = r
		}
	}
	return m
}

// Collected extends Result with the final per-node token sets, for
// applications (e.g. max coverage) that consume what was spread.
type Collected struct {
	Result *Result
	// Known[u] is the set of token ids node u ended up holding.
	Known []*bitset.Set
}

// RunCollecting is Run, additionally returning the final token sets.
func RunCollecting(g *graph.Graph, cfg Config) (*Collected, error) {
	res, st, err := run(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Collected{Result: res, Known: st.tokens}, nil
}

// Run executes push–pull per the config.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	res, _, err := run(g, cfg)
	return res, err
}

func run(g *graph.Graph, cfg Config) (*Result, *state, error) {
	n := g.N()
	if n < 2 {
		return nil, nil, errors.New("spread: need at least 2 nodes")
	}
	if !g.IsConnected() {
		return nil, nil, graph.ErrNotConnected
	}
	if cfg.Beta < 1 && cfg.FixedRounds == 0 {
		return nil, nil, fmt.Errorf("spread: need β ≥ 1, got %g", cfg.Beta)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64 * n
	}
	if cfg.FixedRounds > 0 {
		maxRounds = cfg.FixedRounds
	}
	target := n
	if cfg.Beta >= 1 {
		target = int(float64(n)/cfg.Beta + 0.999999)
		if target < 1 {
			target = 1
		}
	}
	st := newState(g, cfg.Seed, cfg.Workers)
	res := &Result{RoundsToPartial: -1, RoundsToFull: -1}
	if target <= 1 {
		res.RoundsToPartial = 0
	}
	for r := 1; r <= maxRounds; r++ {
		res.Messages += st.round()
		res.Rounds = r
		minHeld, minReach := st.minHeld(), st.minReach()
		if res.RoundsToPartial < 0 && minHeld >= target && minReach >= target {
			res.RoundsToPartial = r
			if cfg.StopAtPartial && cfg.FixedRounds == 0 {
				break
			}
		}
		if minHeld == n && minReach == n {
			res.RoundsToFull = r
			break
		}
	}
	res.MinTokensPerNode = st.minHeld()
	res.MinNodesPerToken = st.minReach()
	if cfg.FixedRounds == 0 && !cfg.StopAtPartial && res.RoundsToFull < 0 {
		return res, st, fmt.Errorf("spread: full spreading not reached in %d rounds", maxRounds)
	}
	if cfg.FixedRounds == 0 && cfg.StopAtPartial && res.RoundsToPartial < 0 {
		return res, st, fmt.Errorf("spread: partial spreading not reached in %d rounds", maxRounds)
	}
	return res, st, nil
}

// LeaderElection runs push–pull where the payload is the minimum node id
// seen so far (the classical min-id leader election over gossip; an
// application the paper cites for partial information spreading [4, 5]).
// It returns the number of rounds until every node knows the global
// minimum id.
func LeaderElection(g *graph.Graph, seed int64, maxRounds int) (int, error) {
	n := g.N()
	if n < 2 {
		return 0, errors.New("spread: need at least 2 nodes")
	}
	if !g.IsConnected() {
		return 0, graph.ErrNotConnected
	}
	if maxRounds == 0 {
		maxRounds = 64 * n
	}
	rng := rand.New(rand.NewSource(seed))
	min := make([]int32, n)
	for u := range min {
		min[u] = int32(u)
	}
	next := make([]int32, n)
	for r := 1; r <= maxRounds; r++ {
		copy(next, min)
		for u := 0; u < n; u++ {
			row := g.Neighbors(u)
			v := row[rng.Intn(len(row))]
			if min[v] < next[u] {
				next[u] = min[v]
			}
			if min[u] < next[v] {
				next[v] = min[u]
			}
		}
		min, next = next, min
		done := true
		for _, m := range min {
			if m != 0 {
				done = false
				break
			}
		}
		if done {
			return r, nil
		}
	}
	return 0, fmt.Errorf("spread: leader election incomplete after %d rounds", maxRounds)
}
