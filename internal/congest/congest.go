package congest

import (
	"errors"
	"fmt"
)

// Message is one message in flight. The fixed fields cover every payload the
// CONGEST algorithms need (a kind tag, a sequence number and two integer
// words). Bits is the size charged against the bandwidth budget and must be
// positive. A Message holds no pointers, so mailbox buffers are opaque to
// the garbage collector.
type Message struct {
	From  int32 // sender id, filled by the engine
	Round int32 // round in which the message was delivered, filled by the engine
	Kind  uint8
	Flags uint8 // message flags (FlagVolatile; FlagBounced is engine-set)
	Seq   int32
	Value int64
	Aux   int64
	Bits  int32
}

// Message flags. On static networks (Config.Topology == nil) both are
// inert: every edge is permanently active and nothing ever bounces.
const (
	// FlagVolatile subjects the message to the dynamic edge state: a
	// volatile send over an edge that is inactive in the current round is
	// not delivered; instead the engine bounces it back to the sender
	// (FlagBounced set, From set to the unreachable neighbor), arriving
	// next round like any other message. Non-volatile messages ride the
	// superset unconditionally — the out-of-band control plane of the
	// dynamic algorithms.
	FlagVolatile uint8 = 1 << iota
	// FlagBounced marks an engine-generated bounce of a volatile send.
	FlagBounced
)

// Bounced reports whether this message is the engine's bounce of one of the
// receiver's own volatile sends over an inactive edge: From is the neighbor
// that was unreachable, and the remaining fields are the original message's.
func (m Message) Bounced() bool { return m.Flags&FlagBounced != 0 }

// Process is the per-node algorithm. Init runs before round 1 and may send
// messages (delivered in round 1). Step runs once per round. Under
// Network.RunDormant a dormant node's Init instead runs in the round of its
// first message, right before its first Step, concurrently with other
// nodes' Steps and Inits.
type Process interface {
	Init(ctx *Context)
	Step(ctx *Context)
}

// Config controls a simulation run.
type Config struct {
	// BandwidthBits is the per-directed-edge per-round budget. Zero selects
	// the default Θ(log n) budget from DefaultBandwidth.
	BandwidthBits int
	// MaxRounds aborts the run with ErrRoundLimit when exceeded.
	// Zero selects a generous default of 64·n + 10^6.
	MaxRounds int
	// Seed feeds the deterministic per-node RNGs.
	Seed int64
	// Workers is the number of stepping goroutines; zero means GOMAXPROCS.
	// The worker count never changes results: the sharded mailboxes keep
	// delivery order canonical for any value.
	Workers int
	// OnRound, when non-nil, is invoked after each round's delivery with
	// the round number just completed; returning true stops the run
	// gracefully (Stats.HaltedAll stays false, no error). All node
	// goroutines are quiescent during the call, so the callback may safely
	// read process state it captured at construction. Setting OnRound
	// disables round fast-forwarding (every round is observed).
	OnRound func(round int) (stop bool)
	// Topology, when non-nil, makes the network dynamic: the provider is
	// consulted at every round boundary to activate/deactivate edges of the
	// static superset graph (see TopologyProvider). Dynamic runs disable
	// round fast-forwarding — the provider must observe every round — and
	// remain deterministic for every worker count. Providers following the
	// statelessness contract may be shared across the worker networks of a
	// sweep.
	Topology TopologyProvider
	// Cluster, when non-nil, makes this network one peer of a multi-process
	// run: only the peer's contiguous vertex range is computed here, and the
	// deliver phase exchanges frames with the other peers (see
	// ClusterConfig). Results are DeepEqual to the single-process run for
	// any peer count. Cluster runs exclude OnRound and adaptive topology
	// providers.
	Cluster *ClusterConfig
}

// BandwidthFactor is the constant in the default per-edge budget
// B = BandwidthFactor·⌈log₂ n⌉ bits. The paper's algorithms need a small
// constant number of O(log n)-bit words per edge per round; 16 words is a
// comfortable, explicit choice.
const BandwidthFactor = 16

// DefaultBandwidth returns the default CONGEST budget for an n-node graph.
func DefaultBandwidth(n int) int {
	logn := 1
	for v := n - 1; v > 0; v >>= 1 {
		logn++
	}
	if logn < 8 {
		logn = 8
	}
	return BandwidthFactor * logn
}

// ErrRoundLimit is returned when MaxRounds elapses before every node halts.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// BandwidthError reports a CONGEST bandwidth violation.
type BandwidthError struct {
	From, To    int
	Round       int
	Used, Limit int
}

// Error implements the error interface.
func (e *BandwidthError) Error() string {
	return fmt.Sprintf("congest: bandwidth violation on edge %d→%d in round %d: %d bits > limit %d",
		e.From, e.To, e.Round, e.Used, e.Limit)
}

// SendError reports an illegal send (non-neighbor target or bad size).
type SendError struct {
	From, To int
	Round    int
	Reason   string
}

// Error implements the error interface.
func (e *SendError) Error() string {
	return fmt.Sprintf("congest: illegal send %d→%d in round %d: %s", e.From, e.To, e.Round, e.Reason)
}

// Stats summarizes a completed (or aborted) run.
type Stats struct {
	Rounds      int   // rounds executed (including fast-forwarded ones)
	Messages    int64 // total messages delivered (excludes engine bounces: nothing traversed an edge)
	Bits        int64 // total message bits delivered (excludes engine bounces)
	MaxEdgeBits int   // max bits observed on one directed edge in one round
	HaltedAll   bool  // whether every node halted

	// Liveness counters (see the architecture section of the package doc).
	ActiveSteps   int64 // total Step invocations (excludes halted/sleeping nodes)
	SleepSkips    int64 // live nodes not stepped in an executed round, dormant ones included
	Wakeups       int64 // sleeping nodes woken early by message arrival
	SkippedRounds int64 // rounds fast-forwarded while the whole network slept

	// Allocation counters: buffer growth events per phase. In the steady
	// state both stay constant from one round to the next — the engine's
	// zero-allocation property, asserted by the regression tests. Unlike
	// every other field they describe the execution, not the simulation:
	// more workers mean more (smaller) buffers warming up, so these two may
	// differ across worker counts while all results stay identical.
	StepGrows    int64 // outbox growth events during step phases
	DeliverGrows int64 // inbox growth events during deliver phases

	// Dynamic-topology counters (zero on static networks).
	TopologyChanges int64 // edge activations/deactivations applied by the provider
	DroppedSends    int64 // volatile sends bounced off inactive edges

	// Cluster transport counters (zero on loopback runs). Like the Grows
	// counters they describe the execution, not the simulation: WireBytes is
	// the frame bytes this peer put on the wire, FramesSent/FramesRecv the
	// per-round peer frames exchanged (one frame per remote peer per round,
	// empty or not).
	WireBytes  int64
	FramesSent int64
	FramesRecv int64
}
