package protocol

import (
	"math/bits"
	"slices"

	"repro/internal/congest"
	"repro/internal/fixedpoint"
)

// Message kinds used by the local-mixing protocol family.
const (
	// KindBFS grows the BFS tree: Seq=epoch, Value=depth cap (ℓ),
	// Aux=sender depth.
	KindBFS uint8 = 1 + iota
	// KindJoin registers a child with its chosen parent: Seq=epoch.
	KindJoin
	// KindCensus convergecasts subtree statistics: Seq=epoch,
	// Value=subtree size, Aux=subtree max depth.
	KindCensus
	// KindFloodStart announces the flooding window: Seq=epoch,
	// Value=absolute start round F0, Aux=walk length ℓ.
	KindFloodStart
	// KindWalk carries one flooding share: Seq=epoch, Value=fixed-point
	// share.
	KindWalk
	// KindSetR broadcasts a candidate set size and requests a (min,max)
	// convergecast of the local differences x_u: Seq=query id, Value=R.
	KindSetR
	// KindMinMax replies to KindSetR: Seq=query id, Value=min, Aux=max.
	KindMinMax
	// KindQuery broadcasts a binary-search probe: Seq=query id, Value=mid.
	KindQuery
	// KindReply replies to KindQuery: Seq=query id, Value=Σ x_u ≤ mid,
	// Aux=#{x_u ≤ mid} over the subtree.
	KindReply
	// KindCheck broadcasts the [18] global mixing test request: Seq=query
	// id.
	KindCheck
	// KindCheckReply replies to KindCheck: Seq=query id,
	// Value=Σ|w−π| over the subtree.
	KindCheckReply
	// KindStop floods the final result and halts the network: Value=result.
	KindStop
)

// KindName returns a human-readable kind label for traces and errors.
func KindName(k uint8) string {
	switch k {
	case KindBFS:
		return "BFS"
	case KindJoin:
		return "JOIN"
	case KindCensus:
		return "CENSUS"
	case KindFloodStart:
		return "FLOODSTART"
	case KindWalk:
		return "WALK"
	case KindSetR:
		return "SETR"
	case KindMinMax:
		return "MINMAX"
	case KindQuery:
		return "QUERY"
	case KindReply:
		return "REPLY"
	case KindCheck:
		return "CHECK"
	case KindCheckReply:
		return "CHECKREPLY"
	case KindStop:
		return "STOP"
	default:
		return "UNKNOWN"
	}
}

// Sizes groups the bit-accounting helpers for one deployment. Every message
// size is O(log n) bits: ids and counters are ⌈log₂ n⌉-bit words, fixed-point
// values are F+1 = O(log n) bits (Lemma 2's c·log n), and sums get the extra
// ⌈log₂ n⌉ bits they need.
type Sizes struct {
	LogN int
	// TieBits is the number of sub-grid randomized tie-breaking bits
	// appended to x values (0 when the deterministic resolution is used).
	TieBits int
	Scale   fixedpoint.Scale
}

// NewSizes builds the size table for an n-node network.
func NewSizes(n int, scale fixedpoint.Scale) Sizes {
	l := bits.Len(uint(n - 1))
	if l < 4 {
		l = 4
	}
	return Sizes{LogN: l, Scale: scale}
}

// Control returns the size of a control message (kind tag + epoch + one
// counter-sized field).
func (s Sizes) Control() int32 { return int32(8 + 2*s.LogN) }

// Value returns the size of a message carrying one fixed-point probability
// (plus tie bits if enabled).
func (s Sizes) Value() int32 { return int32(8 + s.LogN + s.Scale.ValueBits() + s.TieBits) }

// Sum returns the size of a message carrying a sum of up to n fixed-point
// values plus a count.
func (s Sizes) Sum(n int) int32 {
	return int32(8 + s.LogN + s.Scale.SumBits(n) + s.TieBits + s.LogN + 1)
}

// Tree is the per-node BFS-tree state for one epoch, including the census
// convergecast. It is embedded in the responder process of internal/core and
// reused by every algorithm variant.
type Tree struct {
	Epoch    int32
	InTree   bool
	IsRoot   bool
	Parent   int32
	Depth    int64
	Children []int32

	// Row positions of Parent and Children in this node's adjacency row,
	// so tree sends skip Send's row search (SendParent, SendChildren).
	// childPos catches up with Children on the first send to them.
	parentPos int32
	childPos  []int32

	// Census bookkeeping.
	joinDeadline  int // round at which the children list is final
	childrenFinal bool
	censusSent    bool
	gotCensus     int
	sizeAcc       int64 // subtree size accumulated (self + reported children)
	depthAcc      int64 // subtree max depth accumulated

	// Root-side census results, valid once CensusDone.
	CensusDone bool
	TreeSize   int64
	MaxDepth   int64
}

// Reset prepares the tree for a new epoch.
func (t *Tree) Reset(epoch int32, isRoot bool) {
	*t = Tree{Epoch: epoch, IsRoot: isRoot, Parent: -1}
	if isRoot {
		t.InTree = true
		t.Depth = 0
		t.sizeAcc = 1
		t.depthAcc = 0
	}
}

// StartRoot is called by the driver when it initiates a BFS epoch: the root
// broadcasts the BFS message and opens its own census.
func (t *Tree) StartRoot(ctx *congest.Context, sz Sizes, epoch int32, depthCap int64) {
	t.Reset(epoch, true)
	ctx.Broadcast(congest.Message{
		Kind:  KindBFS,
		Seq:   epoch,
		Value: depthCap,
		Aux:   0, // sender depth
		Bits:  sz.Control(),
	})
	t.joinDeadline = ctx.Round() + 2
}

// OnBFS processes a BFS message at a non-root node. The first BFS of a new
// epoch adopts the sender as parent (ties broken by the engine's
// deterministic inbox order: lowest sender id first), joins, and forwards if
// the depth cap allows. Returns true when the node joined a new epoch
// (callers reset their per-epoch state).
func (t *Tree) OnBFS(ctx *congest.Context, sz Sizes, m congest.Message) bool {
	if m.Seq < t.Epoch || (m.Seq == t.Epoch && t.InTree) {
		return false // stale epoch or already joined
	}
	t.Reset(m.Seq, false)
	t.InTree = true
	t.Parent = m.From
	t.Depth = m.Aux + 1
	t.sizeAcc = 1
	t.depthAcc = t.Depth
	row := ctx.Neighbors()
	pos, _ := slices.BinarySearch(row, m.From)
	t.parentPos = int32(pos)
	t.SendParent(ctx, congest.Message{Kind: KindJoin, Seq: m.Seq, Bits: sz.Control()})
	if t.Depth < m.Value { // below the depth cap: keep flooding
		for i, v := range row {
			if v != m.From {
				ctx.SendNbr(i, congest.Message{
					Kind:  KindBFS,
					Seq:   m.Seq,
					Value: m.Value,
					Aux:   t.Depth,
					Bits:  sz.Control(),
				})
			}
		}
	}
	t.joinDeadline = ctx.Round() + 2
	return true
}

// OnJoin records a child.
func (t *Tree) OnJoin(m congest.Message) {
	if m.Seq != t.Epoch || !t.InTree {
		return
	}
	t.Children = append(t.Children, m.From)
}

// OnCensus merges a child's census report.
func (t *Tree) OnCensus(m congest.Message) {
	if m.Seq != t.Epoch || !t.InTree {
		return
	}
	t.gotCensus++
	t.sizeAcc += m.Value
	if m.Aux > t.depthAcc {
		t.depthAcc = m.Aux
	}
}

// Advance runs the census schedule; the responder calls it every round after
// processing its inbox. When the subtree is complete it reports up (or, at
// the root, publishes CensusDone/TreeSize/MaxDepth).
func (t *Tree) Advance(ctx *congest.Context, sz Sizes) {
	if !t.InTree || t.censusSent {
		return
	}
	if !t.childrenFinal {
		if ctx.Round() < t.joinDeadline {
			return
		}
		t.childrenFinal = true
	}
	if t.gotCensus < len(t.Children) {
		return
	}
	t.censusSent = true
	if t.IsRoot {
		t.CensusDone = true
		t.TreeSize = t.sizeAcc
		t.MaxDepth = t.depthAcc
		return
	}
	t.SendParent(ctx, congest.Message{
		Kind:  KindCensus,
		Seq:   t.Epoch,
		Value: t.sizeAcc,
		Aux:   t.depthAcc,
		Bits:  sz.Sum(ctx.N()),
	})
}

// Deadline returns the round at which Advance next acts on its own — the
// join deadline that closes the children list — and false when the census
// waits only on messages (children's reports) or is finished. A responder
// that sleeps until this round misses no census step.
func (t *Tree) Deadline() (int, bool) {
	if !t.InTree || t.censusSent || t.childrenFinal {
		return 0, false
	}
	return t.joinDeadline, true
}

// SendParent sends m to the parent, addressed by its row position.
func (t *Tree) SendParent(ctx *congest.Context, m congest.Message) {
	ctx.SendNbr(int(t.parentPos), m)
}

// SendChildren sends m to every child in join order, addressed by row
// position; a child's position is found once, on the first send after it
// joined.
func (t *Tree) SendChildren(ctx *congest.Context, m congest.Message) {
	if len(t.childPos) < len(t.Children) {
		row := ctx.Neighbors()
		for _, c := range t.Children[len(t.childPos):] {
			pos, _ := slices.BinarySearch(row, c)
			t.childPos = append(t.childPos, int32(pos))
		}
	}
	for _, pos := range t.childPos {
		ctx.SendNbr(int(pos), m)
	}
}

// Agg tracks one reactive convergecast (SETR→MINMAX, QUERY→REPLY or
// CHECK→CHECKREPLY). The node opens an Agg when the request arrives from its
// parent (or, at the root, when the driver issues it), merges its own
// contribution immediately, and replies upward once every child has replied.
type Agg struct {
	Active  bool
	Kind    uint8 // the *request* kind
	Seq     int32
	Pending int
	Sum     int64
	Count   int64
	Min     int64
	Max     int64

	// Root-side completion flag; valid when the root's Agg closes.
	Done bool
}

// Open starts an aggregation with this node's own contribution.
func (a *Agg) Open(kind uint8, seq int32, children int, x int64, mid int64) {
	*a = Agg{Active: true, Kind: kind, Seq: seq, Pending: children, Min: x, Max: x}
	switch kind {
	case KindSetR:
		// min/max only
	case KindQuery:
		if x <= mid {
			a.Sum = x
			a.Count = 1
		}
	case KindCheck:
		a.Sum = x
	}
}

// Merge folds a child reply in; returns true if the reply matched.
func (a *Agg) Merge(m congest.Message) bool {
	if !a.Active || m.Seq != a.Seq {
		return false
	}
	switch m.Kind {
	case KindMinMax:
		if a.Kind != KindSetR {
			return false
		}
		if m.Value < a.Min {
			a.Min = m.Value
		}
		if m.Aux > a.Max {
			a.Max = m.Aux
		}
	case KindReply:
		if a.Kind != KindQuery {
			return false
		}
		a.Sum += m.Value
		a.Count += m.Aux
	case KindCheckReply:
		if a.Kind != KindCheck {
			return false
		}
		a.Sum += m.Value
	default:
		return false
	}
	a.Pending--
	return true
}

// Complete reports whether every child has replied.
func (a *Agg) Complete() bool { return a.Active && a.Pending <= 0 }

// ReplyUp sends the aggregate to the parent and closes the Agg. The root
// instead marks Done for its driver.
func (a *Agg) ReplyUp(ctx *congest.Context, sz Sizes, t *Tree) {
	if t.IsRoot {
		a.Active = false
		a.Done = true
		return
	}
	var m congest.Message
	switch a.Kind {
	case KindSetR:
		m = congest.Message{Kind: KindMinMax, Seq: a.Seq, Value: a.Min, Aux: a.Max, Bits: sz.Sum(ctx.N())}
	case KindQuery:
		m = congest.Message{Kind: KindReply, Seq: a.Seq, Value: a.Sum, Aux: a.Count, Bits: sz.Sum(ctx.N())}
	case KindCheck:
		m = congest.Message{Kind: KindCheckReply, Seq: a.Seq, Value: a.Sum, Bits: sz.Sum(ctx.N())}
	}
	t.SendParent(ctx, m)
	a.Active = false
	a.Done = false
}
