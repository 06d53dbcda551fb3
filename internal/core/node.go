package core

import (
	"repro/internal/congest"
	"repro/internal/fixedpoint"
	"repro/internal/protocol"
)

// shared holds the immutable per-run parameters every process sees. All
// fields are public inputs of the algorithm (the CONGEST model gives every
// node n, m and the protocol parameters up front, §1.1).
type shared struct {
	cfg   Config
	scale fixedpoint.Scale
	sizes protocol.Sizes
	twoM  int64
}

// node is the responder process run by every non-source vertex (and
// embedded by the source's driver): it maintains the BFS tree, floods walk
// mass, answers SETR/QUERY/CHECK aggregations, and halts on STOP.
type node struct {
	sh   *shared
	tree protocol.Tree
	agg  protocol.Agg

	// Walk state. phase identifies the current flooding window; in
	// ApproxLocal and MixTime modes the walk restarts every phase, in
	// ExactLocal it persists across phases and advances one step per phase.
	phase int32
	f0    int   // absolute round at which the window opens
	flen  int   // number of flooding steps in the window
	w     int64 // current fixed-point mass

	// Aggregation contribution state.
	targetVal int64 // ⌊One/R⌋ after SETR (or π_u·One during CHECK)
	x         int64 // |w − targetVal|

	// Final output, for inspection after the run.
	stopValue int64
	stopSeen  bool
}

func newNode(sh *shared) *node {
	return &node{sh: sh, phase: -1}
}

// Init implements congest.Process.
func (nd *node) Init(ctx *congest.Context) {}

// idleSleep parks a process with no timed event; message arrival wakes it.
const idleSleep = 1 << 28

// Step implements congest.Process: the round's work, then a sleep until the
// responder's next timed event.
func (nd *node) Step(ctx *congest.Context) {
	nd.processRound(ctx)
	nd.sleepUntilEvent(ctx)
}

// sleepUntilEvent parks the responder until its next timed event: the
// census join deadline while its children list is open, or the next round
// of its flood window while it holds mass. Everything else it does reacts
// to a message, and arrival wakes a sleeper. Handlers draw randomness only
// on arrival, so the skipped steps would have changed nothing. The driver
// never sleeps: it polls its own state every round.
func (nd *node) sleepUntilEvent(ctx *congest.Context) {
	r := ctx.Round()
	wake := r + idleSleep
	if d, ok := nd.tree.Deadline(); ok {
		wake = min(wake, d)
	}
	if nd.w != 0 && r+1 < nd.f0+nd.flen {
		wake = min(wake, max(r+1, nd.f0))
	}
	ctx.Sleep(wake - r)
}

// processRound runs the responder logic for one round: ingest the inbox,
// advance the census schedule, and emit flooding shares if the round lies in
// the current window. The driver calls this too before its own logic.
func (nd *node) processRound(ctx *congest.Context) {
	sz := nd.sh.sizes
	var walkIn int64
	for _, m := range ctx.Inbox() {
		switch m.Kind {
		case protocol.KindBFS:
			if nd.tree.OnBFS(ctx, sz, m) {
				nd.agg = protocol.Agg{}
			}
		case protocol.KindJoin:
			nd.tree.OnJoin(m)
		case protocol.KindCensus:
			nd.tree.OnCensus(m)
		case protocol.KindFloodStart:
			nd.onFloodStart(ctx, m)
		case protocol.KindWalk:
			if m.Seq == nd.phase {
				walkIn += m.Value
			}
		case protocol.KindSetR:
			nd.onSetR(ctx, m)
		case protocol.KindQuery:
			nd.onQuery(ctx, m)
		case protocol.KindCheck:
			nd.onCheck(ctx, m)
		case protocol.KindMinMax, protocol.KindReply, protocol.KindCheckReply:
			if nd.agg.Merge(m) && nd.agg.Complete() {
				nd.agg.ReplyUp(ctx, sz, &nd.tree)
			}
		case protocol.KindStop:
			nd.onStop(ctx, m)
			return
		}
	}
	if walkIn != 0 {
		nd.w += walkIn
	}
	nd.tree.Advance(ctx, sz)
	nd.maybeFlood(ctx)
}

// onFloodStart opens a flooding window: Value=F0, Aux=ℓ, Seq=phase.
// In the restarting modes the walk state is cleared; the source re-seeds its
// own mass in the driver.
func (nd *node) onFloodStart(ctx *congest.Context, m congest.Message) {
	if m.Seq <= nd.phase {
		return // stale or duplicate
	}
	nd.phase = m.Seq
	nd.f0 = int(m.Value)
	nd.flen = int(m.Aux)
	if nd.sh.cfg.Mode != ExactLocal {
		nd.w = 0
	}
	nd.tree.SendChildren(ctx, congest.Message{
		Kind: protocol.KindFloodStart, Seq: m.Seq,
		Value: m.Value, Aux: m.Aux, Bits: nd.sh.sizes.Control(),
	})
}

// maybeFlood emits this round's walk shares when the round lies in the
// window [F0, F0+ℓ).
func (nd *node) maybeFlood(ctx *congest.Context) {
	if nd.phase < 0 || nd.w == 0 {
		return
	}
	r := ctx.Round()
	if r < nd.f0 || r >= nd.f0+nd.flen {
		return
	}
	emitShares(ctx, &nd.w, nd.sh.cfg.Lazy, nd.phase, nd.sh.sizes.Value())
}

// emitShares is Algorithm 1's per-round flooding action in fixed point:
// send ⌊w/d⌋ (lazy: hold ⌈w/2⌉ first) per neighbor and keep the remainder.
// On a dynamic network the walk evolves on the current round's topology
// G_r: the divisor is the *active* degree, shares go only over active edges
// (marked volatile — sent over active edges they can never bounce, but the
// marking keeps the walk honest about which plane it rides), and an
// isolated node holds all its mass for the round. Mass is conserved exactly
// in both modes.
func emitShares(ctx *congest.Context, w *int64, lazy bool, seq int32, bits int32) {
	// Expose the held mass to state-aware adversaries (a witness-boundary
	// attacker ranks nodes by it); a no-op on static networks, and never
	// read by oblivious churn.
	ctx.Publish(*w)
	dyn := ctx.Dynamic()
	d := int64(ctx.Degree())
	if dyn {
		d = int64(ctx.ActiveDegree())
	}
	if d == 0 {
		return
	}
	avail := *w
	var hold int64
	if lazy {
		hold = avail - avail/2
		avail /= 2
	}
	share := avail / d
	*w = hold + (avail - d*share)
	if share == 0 {
		return
	}
	msg := congest.Message{
		Kind: protocol.KindWalk, Seq: seq,
		Value: share, Bits: bits,
	}
	if !dyn {
		ctx.Broadcast(msg)
		return
	}
	msg.Flags = congest.FlagVolatile
	for i := range ctx.Neighbors() {
		if ctx.EdgeActive(i) {
			ctx.SendNbr(i, msg)
		}
	}
}

// onSetR handles a set-size announcement: recompute x and convergecast
// (min, max) of x over the subtree. With randomized tie-breaking enabled
// (§3.1), x is shifted up and a private random value fills the low bits, so
// all x are distinct w.h.p.; the perturbation adds at most R·2^-TieBits grid
// units to the final sum, which is absorbed by the 4ε margin exactly as the
// paper's r_u ∈ [1/n⁸, 1/n⁴] is.
func (nd *node) onSetR(ctx *congest.Context, m congest.Message) {
	nd.targetVal = nd.sh.scale.One / m.Value
	x := fixedpoint.Abs(nd.w, nd.targetVal)
	if tb := nd.sh.cfg.TieBreakBits; tb > 0 {
		x = x<<uint(tb) | ctx.Rand().Int63n(1<<uint(tb))
	}
	nd.x = x
	nd.openAgg(ctx, protocol.KindSetR, m.Seq, 0, m)
}

// onQuery handles a binary-search probe: convergecast (Σ x ≤ mid, #x ≤ mid).
func (nd *node) onQuery(ctx *congest.Context, m congest.Message) {
	nd.openAgg(ctx, protocol.KindQuery, m.Seq, m.Value, m)
}

// onCheck handles the global mixing test: x = |w − π_u·One|, convergecast Σ.
func (nd *node) onCheck(ctx *congest.Context, m congest.Message) {
	nd.targetVal = nd.sh.scale.One * int64(ctx.Degree()) / nd.sh.twoM
	nd.x = fixedpoint.Abs(nd.w, nd.targetVal)
	nd.openAgg(ctx, protocol.KindCheck, m.Seq, 0, m)
}

// openAgg starts an aggregation with this node's contribution, forwards the
// request down the tree, and replies immediately when the node is a leaf.
func (nd *node) openAgg(ctx *congest.Context, kind uint8, seq int32, mid int64, m congest.Message) {
	sz := nd.sh.sizes
	nd.agg.Open(kind, seq, len(nd.tree.Children), nd.x, mid)
	fwd := congest.Message{Kind: kind, Seq: seq, Value: m.Value, Aux: m.Aux, Bits: sz.Control()}
	if kind == protocol.KindQuery {
		fwd.Bits = sz.Value()
	}
	nd.tree.SendChildren(ctx, fwd)
	if nd.agg.Complete() {
		nd.agg.ReplyUp(ctx, sz, &nd.tree)
	}
}

// onStop floods the final result and halts.
func (nd *node) onStop(ctx *congest.Context, m congest.Message) {
	if nd.stopSeen {
		return
	}
	nd.stopSeen = true
	nd.stopValue = m.Value
	for i, v := range ctx.Neighbors() {
		if v != m.From {
			ctx.SendNbr(i, congest.Message{Kind: protocol.KindStop, Value: m.Value, Bits: nd.sh.sizes.Control()})
		}
	}
	ctx.Halt()
}
