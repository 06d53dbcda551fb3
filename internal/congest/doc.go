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
//     structure does not. A shard owns its nodes' Contexts exclusively: it
//     steps them, delivers into their inboxes and tracks their liveness,
//     so no lock is ever taken on per-node state.
//
//   - Sharded mailboxes. Each shard keeps one flat outbox buffer per
//     destination shard (a W×W matrix of []pend slices), truncated and
//     never freed. Shard s delivers by draining out[w][s] for w = 0..W-1
//     in order. Shards are contiguous id ranges stepped in ascending id
//     order, so this reproduces the canonical "ascending sender id, then
//     send order" inbox ordering for every worker count.
//
//   - CSR edge slots. The directed edge u→v is named by its position in
//     the graph's own CSR arrays. Send finds it by binary search of u's
//     sorted row; SendNbr and Broadcast address neighbors by row position.
//     The slot indexes the per-directed-edge bandwidth accounting, which
//     only the sending shard writes. Tree sends (protocol.Tree) address
//     parent and children by the row positions recorded when the tree
//     learned them. Each message is written once into
//     its outbox entry and copied once into the receiver's inbox.
//
//   - Wake calendar. A round steps only the nodes that are due: those
//     that got mail (the deliver phase marks each receiver), those that
//     stepped last round without sleeping or halting, and those whose
//     timed wake-up falls due (Sleep and SleepThenHalt file the round in
//     the shard's wake queue). The due set is a two-level bitmap, so each
//     shard steps its due nodes in ascending id order at a cost of one
//     word per 4096 nodes plus the due nodes; a round costs O(awake +
//     arrivals), not O(live). When a round steps nothing and delivers
//     nothing, the engine fast-forwards to the earliest wake-up. A
//     SleepThenHalt that runs out with no mail halts its node before the
//     round's steps, so a node that knows the round its run ends is never
//     stepped again. Stats.SleepSkips stays the count of live nodes not
//     stepped in an executed round, added as live − stepped per round.
//
//   - State on first touch. A node's Context and the bandwidth use of its
//     CSR row live in a page of 32 vertices allocated when the first of
//     them is touched; a Run activates a Context by its run stamp, so no
//     Run visits the nodes it does not reach. An inbox, of capacity
//     deg(v), is carved from its shard's slab on the node's first
//     delivery, and an RNG on its first Context.Rand, which seeds it from
//     (seed, id). Carved state stays with its node across Runs of a reused
//     network. Protocols may page their own per-node state the same way
//     (Pages).
//
//   - Dormant nodes. RunDormant starts every node but the sources
//     dormant: a protocol declares that their Init would only sleep, so a
//     dormant node's Process is created and initialized when its first
//     message arrives, and the nodes still dormant at Dormancy.HaltRound
//     halt together as a count. Such an Init runs in the round of the
//     node's first message, on the shard worker that steps it, so the
//     protocol's process factory must be safe for concurrent calls. A run
//     that reaches a ball of the graph pays for the ball; only the round-0
//     census of Algorithm 2 needs every node at round 0.
//
//   - Arithmetic owners. Shards are the equal ranges lo + w·(hi−lo)/W of
//     the owned range and cluster peers are graph.ShardRange, so the owner
//     of a message's destination is computed, not looked up.
//
// # Dynamic networks
//
// Setting Config.Topology turns the graph into the *superset* of a dynamic
// network (the evolving-graph model of Kuhn–Lynch–Oshman and the
// Das Sarma–Molla–Pandurangan random-walk line): at every round boundary
// the TopologyProvider toggles superset edges on the engine-owned activity
// overlay, with all workers quiescent, and processes observe the frozen
// round topology via Context.EdgeActive and Context.ActiveDegree. Volatile
// messages (FlagVolatile) are subject to the current edge state — a
// volatile send over an inactive edge is bounced back to its sender as a
// link-layer loss notification — while plain messages ride the superset as
// the out-of-band control plane of the dynamic algorithms in
// internal/core. The overlay is sized for the superset at construction, so
// churn never allocates. Dynamic runs disable fast-forwarding (the provider
// must observe every round), stay deterministic for every worker count,
// and rewind the overlay on every Run, so reused sweep networks replay the
// same churn schedule.
//
// Stats exposes counters for each of these mechanisms (ActiveSteps,
// SleepSkips, Wakeups, SkippedRounds, TopologyChanges, DroppedSends, and
// the buffer-growth counters StepGrows/DeliverGrows).
package congest
