// Package congest simulates the synchronous CONGEST model of distributed
// computing (paper §1.1) on an undirected graph — static, or dynamic under
// per-round edge churn.
//
// Execution proceeds in globally synchronous rounds. In round r every
// non-halted node is stepped exactly once; it sees the messages its
// neighbors sent during round r−1 and may send messages to neighbors, which
// arrive at the start of round r+1. Nodes are split into W shards, one per
// worker (a single shard when the run owns fewer than 64 nodes). The
// calling goroutine runs shard 0 and a pool of W−1 goroutines runs the
// rest; a phase with too little work to repay waking the pool (fewer than
// inlineWork nodes stepped plus messages moved) runs all shards inline on
// the caller. Each node's Step runs on one goroutine with exclusive access
// to that node's state, mirroring the "one processor per vertex" model,
// and the engine is deterministic for a fixed seed regardless of the
// worker count or of which phases ran inline.
//
// The engine *enforces* the CONGEST bandwidth constraint: the total size of
// the messages a node sends over one directed edge in one round must not
// exceed the per-edge budget B = Θ(log n) bits. Violations abort the run
// with a descriptive error; the algorithms in internal/core are written so
// that this never fires, and the tests exercise the enforcement path
// deliberately.
//
// # Architecture: sharded mailboxes and the zero-allocation round loop
//
// The engine is built for graphs with millions of nodes, so the round loop
// is designed around two constraints: no per-message heap allocation in the
// steady state, and no O(n) scans for bookkeeping that only concerns a few
// nodes. The design:
//
//   - Sharding. The node set is split into W contiguous shards, one per
//     worker. Who executes a shard changes from phase to phase; the shard
//     structure does not. A shard owns its nodes' Contexts exclusively: it steps them,
//     delivers into their inboxes, and maintains their liveness, so no lock
//     is ever taken on per-node state.
//
//   - Sharded mailboxes. Each shard keeps one flat outbox buffer per
//     destination shard (a W×W matrix of []pend slices). Send appends the
//     message to out[owner(to)]; buffers are truncated, never freed, so the
//     steady state allocates nothing. The deliver phase runs each
//     destination shard as one unit: shard s drains out[w][s] for w = 0..W-1 in order.
//     Because shards are contiguous id ranges and every shard steps its
//     nodes in ascending id order, this drain order reproduces exactly the
//     canonical "ascending sender id, then send order" inbox ordering — for
//     every worker count, which is what makes the engine deterministic
//     under parallelism.
//
//   - CSR edge slots. The directed edge u→v is named by its position in
//     the graph's own CSR arrays, so the engine builds no edge index of its
//     own. Send finds the slot by binary search of u's sorted adjacency
//     row (O(log deg)); SendNbr and Broadcast address neighbors by row
//     position and search nothing. The same slot indexes the
//     per-directed-edge bandwidth accounting arrays, which only the
//     sending shard writes. Each message is written once into its outbox
//     entry and copied once into the receiver's inbox; the engine stamps
//     From and Round in place.
//
//   - Liveness tracking. Each shard keeps a compact ascending list of its
//     live (non-halted) nodes, compacted in place as nodes halt, plus a
//     halted count, so round upkeep is O(live), not O(n). Sleeping nodes
//     are skipped in O(1) and feed a per-round wake estimate; when a round
//     delivers no messages and steps no node, the engine fast-forwards the
//     round counter to the earliest wake-up instead of grinding through
//     empty rounds.
//
// # Dynamic networks
//
// Setting Config.Topology turns the graph into the *superset* of a dynamic
// network (the evolving-graph model of Kuhn–Lynch–Oshman and the
// Das Sarma–Molla–Pandurangan random-walk line): at every round boundary
// the TopologyProvider activates/deactivates superset edges on the
// engine-owned activity overlay, with all workers quiescent. Within a round
// the topology is frozen; processes observe it via Context.EdgeActive and
// Context.ActiveDegree. Messages are split into two planes: volatile
// messages (Message.Flags & FlagVolatile) are subject to the current edge
// state — a volatile send over an inactive edge is bounced back to its
// sender as a link-layer loss notification — while plain messages ride the
// superset unconditionally, serving as the out-of-band control plane of the
// dynamic algorithms in internal/core. Because the overlay is sized for the
// superset at construction (activity array, bandwidth slots, mailboxes), churn
// never allocates: the zero-allocation steady state holds with edges
// toggling every round. Dynamic runs disable fast-forwarding (the provider
// must observe every round) and remain deterministic for every worker
// count; the engine rewinds the overlay on every Run, so reused sweep
// networks replay the exact same churn schedule.
//
// Stats exposes counters for each of these mechanisms (ActiveSteps,
// SleepSkips, Wakeups, SkippedRounds, TopologyChanges, DroppedSends, and
// the per-phase buffer-growth counters StepGrows/DeliverGrows), so
// regressions in the zero-allocation property are observable from the
// outside.
package congest
