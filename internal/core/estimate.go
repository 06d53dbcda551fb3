package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/fixedpoint"
	"repro/internal/graph"
	"repro/internal/protocol"
)

// rwProc is the standalone Algorithm 1 process: every node knows the length
// ℓ up front (it is an input of ESTIMATE-RW-PROBABILITY), floods for exactly
// ℓ steps and halts. Step t sends during round t and is ingested during
// round t+1. A node holding no mass has nothing to do until mass arrives or
// round ℓ+1 ends the run, so it sleeps until then and halts there unless
// mass arrives first; a holder does the same after its last share in round
// ℓ. Only the ℓ-ball around the source is ever stepped, and in round ℓ+1
// only the nodes mass reached in that round.
//
// A node's only state is its mass, so one rwProc serves every node and
// keeps node u's mass in w[u], the output array itself: each node writes
// only its own entry, so parallel stepping is race-free.
type rwProc struct {
	sh  *shared
	ell int
	w   []int64
}

func (p *rwProc) Init(ctx *congest.Context) { p.sleep(ctx, p.w[ctx.ID()]) }

func (p *rwProc) Step(ctx *congest.Context) {
	w := &p.w[ctx.ID()]
	for _, m := range ctx.Inbox() {
		if m.Kind == protocol.KindWalk {
			*w += m.Value
		}
	}
	if ctx.Round() >= p.ell+1 {
		ctx.Halt()
		return
	}
	if *w > 0 {
		emitShares(ctx, w, p.sh.cfg.Lazy, 0, p.sh.sizes.Value())
	}
	p.sleep(ctx, *w)
}

// sleep parks a node with nothing left to send — no mass w, or its last
// share sent in round ℓ — until round ℓ+1, where it halts unless mass
// arrives first.
func (p *rwProc) sleep(ctx *congest.Context, w int64) {
	if r := ctx.Round(); w == 0 || r == p.ell {
		ctx.SleepThenHalt(p.ell + 1 - r)
	}
}

// RWEstimate is the output of the standalone Algorithm 1 run.
type RWEstimate struct {
	// W holds each node's fixed-point estimate of p_ℓ(u).
	W []int64
	// Scale is the grid the estimates live on.
	Scale fixedpoint.Scale
	// Stats are the engine counters (Rounds is ℓ+1: ℓ flooding steps plus
	// the final ingestion round).
	Stats *congest.Stats
}

// Float converts the estimates to probabilities.
func (e *RWEstimate) Float() []float64 {
	p := make([]float64, len(e.W))
	for i, v := range e.W {
		p[i] = e.Scale.Float(v)
	}
	return p
}

// TotalMass returns Σw; the flooding conserves it exactly (= Scale.One).
func (e *RWEstimate) TotalMass() int64 {
	var s int64
	for _, v := range e.W {
		s += v
	}
	return s
}

// EstimateRWProbability runs Algorithm 1 (ESTIMATE-RW-PROBABILITY, §2.4)
// distributed: it computes the fixed-point estimate of the length-ℓ walk
// distribution from source in ℓ+1 rounds of the CONGEST model. It matches
// exact.FixedWalk bit for bit.
func EstimateRWProbability(g *graph.Graph, source, ell int, cfg Config) (*RWEstimate, error) {
	cfg.Mode = ApproxLocal // irrelevant; reuse validation
	cfg.Source = source
	if cfg.Beta == 0 {
		cfg.Beta = 1
	}
	if cfg.Eps == 0 {
		cfg.Eps = 0.1
	}
	cfg.AllowIrregular = true
	full, err := cfg.withDefaults(g)
	if err != nil {
		return nil, err
	}
	if ell < 0 {
		return nil, fmt.Errorf("core: negative walk length %d", ell)
	}
	scale, err := fixedpoint.ScaleFor(g.N(), full.C)
	if err != nil {
		return nil, err
	}
	sh := &shared{cfg: full, scale: scale, sizes: protocol.NewSizes(g.N(), scale), twoM: int64(2 * g.M())}
	engCfg := full.Engine
	if engCfg.MaxRounds == 0 {
		engCfg.MaxRounds = ell + 16
	}
	net, err := congest.NewNetwork(g, engCfg)
	if err != nil {
		return nil, err
	}
	// Every node but the source starts dormant: its Init would only sleep
	// until ℓ+1, so the engine initializes it when mass first reaches it.
	p := &rwProc{sh: sh, ell: ell, w: make([]int64, g.N())}
	p.w[source] = scale.One
	stats, err := net.RunDormant(congest.Dormancy{Sources: []int{source}, HaltRound: ell + 1},
		func(int) congest.Process { return p })
	if err != nil {
		return nil, err
	}
	return &RWEstimate{W: p.w, Scale: scale, Stats: stats}, nil
}
