package spread

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// engineParams validates a Config for an engine-backed run and derives the
// round budget and the n/β spreading target.
func engineParams(g *graph.Graph, cfg Config) (maxRounds, target int, err error) {
	n := g.N()
	if n < 2 {
		return 0, 0, errors.New("spread: need at least 2 nodes")
	}
	if !g.IsConnected() {
		return 0, 0, graph.ErrNotConnected
	}
	if cfg.Beta < 1 {
		return 0, 0, fmt.Errorf("spread: need β ≥ 1, got %g", cfg.Beta)
	}
	maxRounds = cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64*n + 1000
	}
	if cfg.FixedRounds > 0 {
		maxRounds = cfg.FixedRounds
	}
	target = int(float64(n)/cfg.Beta + 0.999999)
	if target < 1 {
		target = 1
	}
	return maxRounds, target, nil
}

// monitor folds the per-node (append-only) token lists into global reach
// counts while the engine is quiescent, and decides when to stop the run.
type monitor struct {
	n, target int
	maxRounds int
	cfg       Config
	res       *Result
	reach     []int // reach[t] = #nodes holding token t
	counted   []int // counted[u] = prefix of u's list already folded in
	procs     []gossipProc
}

func newMonitor(n, target, maxRounds int, cfg Config, res *Result, procs []gossipProc) *monitor {
	return &monitor{
		n: n, target: target, maxRounds: maxRounds, cfg: cfg, res: res,
		reach: make([]int, n), counted: make([]int, n), procs: procs,
	}
}

func (mo *monitor) onRound(round int) bool {
	mo.res.Rounds = round
	minHeld := mo.n + 1
	for u := 0; u < mo.n; u++ {
		l := mo.procs[u].list
		for ; mo.counted[u] < len(l); mo.counted[u]++ {
			mo.reach[l[mo.counted[u]]]++
		}
		if h := len(l); h < minHeld {
			minHeld = h
		}
	}
	minReach := mo.n + 1
	for _, r := range mo.reach {
		if r < minReach {
			minReach = r
		}
	}
	if mo.res.RoundsToPartial < 0 && minHeld >= mo.target && minReach >= mo.target {
		mo.res.RoundsToPartial = round
		if mo.cfg.StopAtPartial && mo.cfg.FixedRounds == 0 {
			return true
		}
	}
	if minHeld == mo.n && minReach == mo.n {
		mo.res.RoundsToFull = round
		return true
	}
	return round >= mo.maxRounds
}

// finish records the final tallies and enforces the termination contract.
func (mo *monitor) finish(stats *congest.Stats) (*Result, error) {
	mo.res.Messages = stats.Messages
	mo.res.Stats = stats
	minHeld, minReach := mo.n, mo.n
	for u := 0; u < mo.n; u++ {
		if h := len(mo.procs[u].list); h < minHeld {
			minHeld = h
		}
	}
	for _, r := range mo.reach {
		if r < minReach {
			minReach = r
		}
	}
	mo.res.MinTokensPerNode = minHeld
	mo.res.MinNodesPerToken = minReach
	if mo.cfg.FixedRounds == 0 && mo.res.RoundsToPartial < 0 {
		return mo.res, fmt.Errorf("spread: partial spreading not reached in %d rounds", mo.maxRounds)
	}
	return mo.res, nil
}
