package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/congest"
	"repro/internal/graph"
)

// This file implements the dynamic-aware random-walk token protocol in the
// style of Das Sarma, Molla and Pandurangan ("Fast Distributed Computation
// in Dynamic Networks via Random Walks"): a single ℓ-step walk performed by
// forwarding a token, one hop per round. The walker has no advance
// knowledge of the current round's edges — it picks a uniformly random
// superset neighbor and sends the token as a volatile message. When the
// chosen edge is inactive in that round the engine bounces the token back
// (the link-layer loss notification of the dynamic model) and the holder
// restarts the hop next round with a fresh draw; Result.Retries counts
// these restarts. On a static network the protocol degenerates to the
// classical ℓ-round walk with zero retries.
//
// Two hardening layers address adversarial churn:
//
//   - Adaptive adversaries (congest.IsAdaptive): the walk switches to a
//     two-phase hop. The holder first spends one announce round publishing
//     its position via Context.Publish and sending nothing; the adversary
//     reads it at the next round boundary — exactly the round-start state
//     the adaptive model grants — and only then does the holder draw a
//     neighbor and hop. Bounce retries do not re-announce (the position is
//     unchanged), so each retry still costs one round.
//
//   - Retry budget (Config.RetryBudget > 0): the token carries its
//     cumulative bounce count in Message.Aux, surviving holder changes.
//     A holder that bounces ~2·degree consecutive times is stuck — under a
//     backbone-free chaser or a vertex crash it may be fully isolated — and
//     checkpoints the walk: it floods a restart on the non-volatile control
//     plane (which rides the superset, so it escapes even an isolated
//     vertex) and the source begins a fresh attempt with the full step
//     count; TokenWalkResult.Restarts counts these attempts. When the
//     cumulative bounce count exceeds the budget the holder floods an
//     abort instead and the run fails fast with ErrRetryBudget — bounded
//     degradation instead of burning MaxRounds. With RetryBudget == 0 the
//     legacy infinite-patience behavior is preserved exactly.

// Token-protocol message kinds, disjoint from the internal/protocol kinds
// (the token processes never share a network with the census machinery).
const (
	kindToken   uint8 = 0xF0 + iota // the walk token: Value = remaining steps after this hop, Aux = cumulative bounces, Seq = restart generation
	kindDone                        // termination flood: Value = endpoint vertex id
	kindRestart                     // checkpoint-restart flood: Seq = new generation, Aux = cumulative bounces
	kindAbort                       // retry-budget-exhaustion flood: Aux = cumulative bounces
)

// ErrRetryBudget is returned by TokenWalk when the cumulative edge-loss
// retries exceed Config.RetryBudget: the dynamic adversary (or crash
// schedule) defeated the walk within the allotted patience.
var ErrRetryBudget = errors.New("core: token walk retry budget exhausted")

// tokenShared holds the immutable run parameters of the token protocol.
type tokenShared struct {
	lazy     bool
	announce bool // two-phase hops: publish position before hopping (adaptive adversary)
	bits     int32
	steps    int32
	source   int32
	budget   int64 // cumulative bounce budget; 0 = unlimited (legacy)
}

// tokenProc is the per-node token-walk process.
type tokenProc struct {
	sh        *tokenShared
	id        int32
	holder    bool
	awaiting  bool // a hop is in flight; a bounce next round returns the token
	announced bool // this holder has already published its position
	done      bool
	aborted   bool
	remaining int32
	endpoint  int32
	gen       int32 // restart generation carried by the token and its floods
	stuck     int32 // consecutive bounces at this holder (stuck detector)
	restarts  int32 // source only: checkpoint restarts performed
	bounces   int64 // token's cumulative bounce count (travels in Aux)
}

// Init parks every node but the holder until mail arrives. For them that is
// all it does, which is what lets TokenWalk run them dormant.
func (p *tokenProc) Init(ctx *congest.Context) {
	if !p.holder {
		ctx.Sleep(idleSleep)
	}
}

func (p *tokenProc) Step(ctx *congest.Context) {
	for _, m := range ctx.Inbox() {
		switch {
		case m.Kind == kindToken && m.Bounced():
			// The edge under our hop vanished: take the token back —
			// restoring the step count the failed hop would have consumed —
			// and restart the hop below.
			p.holder = true
			p.awaiting = false
			p.remaining = int32(m.Value) + 1
			p.bounces = m.Aux + 1
			p.stuck++
		case m.Kind == kindToken:
			p.holder = true
			p.remaining = int32(m.Value)
			p.bounces = m.Aux
			p.gen = m.Seq
			p.stuck = 0
			p.announced = false
		case m.Kind == kindRestart:
			p.onRestart(ctx, m)
		case m.Kind == kindAbort:
			p.onAbort(ctx, m)
			return
		case m.Kind == kindDone:
			p.onDone(ctx, m)
			return
		}
	}
	if p.awaiting {
		// No bounce: last round's hop was delivered; go idle.
		p.awaiting = false
		ctx.Sleep(idleSleep)
		return
	}
	if !p.holder {
		ctx.Sleep(idleSleep)
		return
	}
	p.act(ctx)
}

// stuckAfter is the consecutive-bounce threshold declaring a holder stuck:
// after ~2·degree fresh uniform draws all bouncing, the holder is with high
// probability isolated (or nearly so) rather than unlucky.
func stuckAfter(degree int) int32 { return int32(2*degree + 4) }

// act performs one walk step: finish, a budget check, a checkpoint restart
// when stuck, an announce round (adaptive mode), a lazy self-loop, or a
// token hop to a uniformly random superset neighbor (volatile — the walker
// does not know the current round's edges in advance).
func (p *tokenProc) act(ctx *congest.Context) {
	if p.remaining == 0 {
		p.finish(ctx)
		return
	}
	if p.sh.budget > 0 {
		if p.bounces > p.sh.budget {
			p.abort(ctx)
			return
		}
		if p.stuck >= stuckAfter(ctx.Degree()) {
			p.checkpointRestart(ctx)
			return
		}
	}
	if p.sh.announce && !p.announced {
		// Announce round: expose the position the adaptive adversary is
		// entitled to, hop next round against the topology it then picks.
		ctx.Publish(int64(p.id))
		p.announced = true
		return
	}
	if p.sh.lazy && ctx.Rand().Intn(2) == 0 {
		p.remaining-- // lazy self-loop: consumes the round, no message
		if p.remaining == 0 {
			p.finish(ctx)
		}
		return
	}
	i := ctx.Rand().Intn(ctx.Degree())
	ctx.SendNbr(i, congest.Message{
		Kind: kindToken, Flags: congest.FlagVolatile,
		Value: int64(p.remaining - 1), Aux: p.bounces, Seq: p.gen, Bits: p.sh.bits,
	})
	p.holder = false
	p.awaiting = true
}

// checkpointRestart gives up on the current position and returns the walk
// to its checkpoint, the source, for a fresh attempt with the full step
// count. The restart flood is non-volatile — it rides the superset control
// plane, so it escapes a holder whose active edges are all down. The
// cumulative bounce count travels with it: attempts share one budget.
func (p *tokenProc) checkpointRestart(ctx *congest.Context) {
	p.stuck = 0
	p.gen++
	if p.id == p.sh.source {
		// Already at the checkpoint: restart in place.
		p.remaining = p.sh.steps
		p.restarts++
		p.announced = false
		return
	}
	p.holder = false
	p.announced = false
	ctx.Broadcast(congest.Message{Kind: kindRestart, Seq: p.gen, Aux: p.bounces, Bits: p.sh.bits})
}

// onRestart forwards a checkpoint-restart flood once (deduplicated by
// generation) and, at the source, re-creates the token.
func (p *tokenProc) onRestart(ctx *congest.Context, m congest.Message) {
	if m.Seq <= p.gen || p.done || p.aborted {
		return
	}
	p.gen = m.Seq
	for i, v := range ctx.Neighbors() {
		if v != m.From {
			ctx.SendNbr(i, congest.Message{Kind: kindRestart, Seq: m.Seq, Aux: m.Aux, Bits: p.sh.bits})
		}
	}
	if p.id == p.sh.source {
		p.holder = true
		p.awaiting = false
		p.announced = false
		p.stuck = 0
		p.remaining = p.sh.steps
		p.bounces = m.Aux
		p.restarts++
	}
}

// abort declares the retry budget exhausted: flood the failure on the
// control plane and halt. TokenWalk maps it to ErrRetryBudget.
func (p *tokenProc) abort(ctx *congest.Context) {
	p.aborted = true
	p.holder = false
	ctx.Broadcast(congest.Message{Kind: kindAbort, Aux: p.bounces, Bits: p.sh.bits})
	ctx.Halt()
}

// onAbort records the failure, forwards the flood once, and halts.
func (p *tokenProc) onAbort(ctx *congest.Context, m congest.Message) {
	if p.aborted || p.done {
		return
	}
	p.aborted = true
	p.bounces = m.Aux
	for i, v := range ctx.Neighbors() {
		if v != m.From {
			ctx.SendNbr(i, congest.Message{Kind: kindAbort, Aux: m.Aux, Bits: p.sh.bits})
		}
	}
	ctx.Halt()
}

// finish announces the walk endpoint with a superset flood and halts.
func (p *tokenProc) finish(ctx *congest.Context) {
	p.endpoint = p.id
	p.done = true
	ctx.Broadcast(congest.Message{Kind: kindDone, Value: int64(p.id), Bits: p.sh.bits})
	ctx.Halt()
}

// onDone records the endpoint, forwards the flood once, and halts.
func (p *tokenProc) onDone(ctx *congest.Context, m congest.Message) {
	if p.done {
		return
	}
	p.done = true
	p.endpoint = int32(m.Value)
	for i, v := range ctx.Neighbors() {
		if v != m.From {
			ctx.SendNbr(i, congest.Message{Kind: kindDone, Value: m.Value, Bits: p.sh.bits})
		}
	}
	ctx.Halt()
}

// TokenWalkResult reports a completed token walk.
type TokenWalkResult struct {
	// End is the walk's endpoint vertex.
	End int
	// Steps is the requested walk length ℓ.
	Steps int
	// Rounds is the engine round count: ℓ + Retries hop rounds plus the
	// termination flood (under an adaptive adversary, plus one announce
	// round per hop).
	Rounds int
	// Retries counts hop restarts after edge-loss bounces (0 on static
	// networks) — the dynamic model's overhead, equal to
	// Stats.DroppedSends.
	Retries int64
	// Restarts counts checkpoint restarts: walk attempts abandoned at a
	// stuck holder and re-begun at the source (0 unless WithRetryBudget).
	Restarts int
	// Stats are the engine counters.
	Stats *congest.Stats
}

// TokenWalk performs one ℓ-step random walk from source by token
// forwarding, one hop per round, and returns the endpoint. With
// WithTopology the walk runs on a dynamic network and restarts any hop
// whose edge vanished under the token (see the file comment); WithLazy
// selects the lazy walk (self-loop with probability 1/2, consuming a round
// without a message). Under an adaptive adversary each hop is pre-announced
// (two-phase); with WithRetryBudget the walk checkpoint-restarts when stuck
// and fails fast with ErrRetryBudget when the budget is exhausted.
// Deterministic for a fixed seed and any worker count.
func TokenWalk(g *graph.Graph, source, steps int, opts ...Option) (*TokenWalkResult, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if g.N() < 2 {
		return nil, errors.New("core: token walk needs at least 2 vertices")
	}
	if !g.IsConnected() {
		return nil, graph.ErrNotConnected
	}
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, g.N())
	}
	if steps < 0 {
		return nil, fmt.Errorf("core: negative walk length %d", steps)
	}
	if cfg.RetryBudget < 0 {
		return nil, fmt.Errorf("core: negative retry budget %d", cfg.RetryBudget)
	}
	engCfg := cfg.Engine
	if engCfg.MaxRounds == 0 {
		// ℓ hop rounds plus retry and flood headroom. Adversarial churn can
		// exceed any fixed budget; the run then fails with ErrRoundLimit
		// (or, with a retry budget, much earlier with ErrRetryBudget).
		engCfg.MaxRounds = 16*steps + 64*g.N() + 1_000_000
	}
	logn := bits.Len(uint(g.N() - 1))
	sh := &tokenShared{
		lazy:     cfg.Lazy,
		announce: congest.IsAdaptive(engCfg.Topology),
		bits:     int32(8 + 2*logn),
		steps:    int32(steps),
		source:   int32(source),
		budget:   int64(cfg.RetryBudget),
	}
	net, err := congest.NewNetwork(g, engCfg)
	if err != nil {
		return nil, err
	}
	// Every node but the source starts dormant: it has nothing to do until
	// the token or a flood reaches it.
	procs := congest.NewPages[tokenProc](g.N())
	stats, err := net.RunDormant(congest.Dormancy{Sources: []int{source}}, func(id int) congest.Process {
		p := procs.At(id)
		*p = tokenProc{sh: sh, id: int32(id)}
		if id == source {
			p.holder = true
			p.remaining = int32(steps)
		}
		return p
	})
	if err != nil {
		return nil, fmt.Errorf("core: token walk failed: %w", err)
	}
	src := procs.At(source)
	if src.sh == nil {
		// Cluster peer that does not own the source (the engine constructs
		// processes only for its vertex range): every halted node learned
		// the outcome from the termination/abort flood, so report from any
		// local process. Restarts are source-side knowledge; the source
		// owner's result is authoritative (internal/cluster merges).
		procs.Touched(func(_ int, p *tokenProc) {
			if src.sh == nil && p.sh != nil {
				src = p
			}
		})
		if src.sh == nil {
			return nil, errors.New("core: token walk constructed no local processes")
		}
	}
	if src.aborted {
		return nil, fmt.Errorf("core: token walk gave up after %d edge-loss retries and %d restarts (budget %d): %w",
			src.bounces, src.restarts, cfg.RetryBudget, ErrRetryBudget)
	}
	return &TokenWalkResult{
		End:      int(src.endpoint),
		Steps:    steps,
		Rounds:   stats.Rounds,
		Retries:  stats.DroppedSends,
		Restarts: int(src.restarts),
		Stats:    stats,
	}, nil
}
