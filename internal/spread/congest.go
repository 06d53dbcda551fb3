package spread

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/congest"
	"repro/internal/graph"
)

// Message kinds for the CONGEST gossip (namespaced away from the protocol
// package's kinds; gossip runs in its own network).
const (
	kindPush  uint8 = 1 // Value = token id, also an implicit pull request
	kindReply uint8 = 2 // Value = token id, answering last round's push
)

// gossipProc is one node of the CONGEST push–pull: each round it contacts a
// uniformly random neighbor with one token id (push) and answers every
// contact from the previous round with one token id (pull). Every message
// is one O(log n)-bit token id, so the engine's bandwidth enforcement is
// the paper's footnote-10 regime, where the bound becomes Õ(τ(β,ε) + n/β).
type gossipProc struct {
	id   int
	bits int32
	held *bitset.Set
	list []int32 // held token ids, for O(1) uniform sampling
}

func (p *gossipProc) add(tok int32) bool {
	if p.held.Contains(int(tok)) {
		return false
	}
	p.held.Add(int(tok))
	p.list = append(p.list, tok)
	return true
}

func (p *gossipProc) random(ctx *congest.Context) int32 {
	return p.list[ctx.Rand().Intn(len(p.list))]
}

func (p *gossipProc) Init(ctx *congest.Context) {}

func (p *gossipProc) Step(ctx *congest.Context) {
	// Ingest everything delivered this round; answer pushes.
	for _, m := range ctx.Inbox() {
		p.add(int32(m.Value))
		if m.Kind == kindPush {
			ctx.Send(int(m.From), congest.Message{Kind: kindReply, Value: int64(p.random(ctx)), Bits: p.bits})
		}
	}
	// Push one random token to one random neighbor (SendNbr: the engine
	// addresses the edge by adjacency-row position, no lookup).
	ctx.SendNbr(ctx.Rand().Intn(ctx.Degree()), congest.Message{Kind: kindPush, Value: int64(p.random(ctx)), Bits: p.bits})
}

// RunCongest executes push–pull under the CONGEST constraint: one token id
// per message (paper §4, footnote 10). The run stops as soon as
// (·, β)-partial information spreading holds, or at MaxRounds. Unlike Run
// (the LOCAL-model simulator), this uses the congest engine with full
// per-edge bandwidth enforcement.
func RunCongest(g *graph.Graph, cfg Config) (*Result, error) {
	maxRounds, target, err := engineParams(g, cfg)
	if err != nil {
		return nil, err
	}
	n := g.N()
	msgBits := int32(bits.Len(uint(n-1)) + 8)
	slab := make([]gossipProc, n)
	res := &Result{RoundsToPartial: -1, RoundsToFull: -1}
	mo := newMonitor(n, target, maxRounds, cfg, res, slab)
	net, err := congest.NewNetwork(g, congest.Config{
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		MaxRounds: maxRounds + 1,
		OnRound:   mo.onRound,
	})
	if err != nil {
		return nil, err
	}
	stats, err := net.Run(func(id int) congest.Process {
		p := &slab[id]
		*p = gossipProc{id: id, bits: msgBits, held: bitset.New(n)}
		p.add(int32(id))
		return p
	})
	if err != nil {
		return nil, err
	}
	return mo.finish(stats)
}
