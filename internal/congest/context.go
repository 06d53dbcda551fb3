package congest

import (
	"math/rand"

	"repro/internal/congest/frame"
)

// Context is the per-node view of the network, passed to Init and Step.
// Contexts are owned by the engine; algorithms must not retain them across
// rounds.
type Context struct {
	sh    *shard     // the shard (worker) that owns this node
	proc  Process    // nil until a dormant node's first message
	inbox []Message  // carved on first delivery (carveInbox), kept across runs
	rng   *rand.Rand // carved on first Rand, kept across runs
	id    int32
	// sleep is the absolute round of the node's timed wake-up (0: awake,
	// noWake: woken by mail only); queued is the round of its newest wake
	// queue entry not yet popped (0: none).
	sleep, queued int32
	run           uint32 // the Run this context was last activated in
	seeded        bool   // whether rng was seeded in this run
	halted        bool
	haltAtWake    bool // the timed wake-up is a halt (SleepThenHalt)
	failed        bool // a send failed; the shard holds the first error
}

// ID returns this node's identifier in [0, N()).
func (c *Context) ID() int { return int(c.id) }

// N returns the number of nodes (known to all nodes per the model, §1.1).
func (c *Context) N() int { return c.sh.net.g.N() }

// M returns the number of edges (known to all nodes per the model, §1.1).
func (c *Context) M() int { return c.sh.net.g.M() }

// Round returns the current global round (0 during Init).
func (c *Context) Round() int { return c.sh.net.round }

// Degree returns this node's degree.
func (c *Context) Degree() int { return c.sh.net.g.Degree(int(c.id)) }

// Neighbors returns this node's neighbor ids (shared slice, do not modify).
func (c *Context) Neighbors() []int32 { return c.sh.net.g.Neighbors(int(c.id)) }

// Inbox returns the messages delivered to this node since it was last
// stepped, ordered by (round, sender, send order). The slice is reused;
// copy anything retained across rounds.
func (c *Context) Inbox() []Message { return c.inbox }

// Dynamic reports whether the network runs under a topology provider. On
// static networks every edge is permanently active.
func (c *Context) Dynamic() bool { return c.sh.net.active != nil }

// EdgeActive reports whether the edge to the i-th neighbor (the position in
// Neighbors()) is active in the current round. Static networks report true
// for every valid position; out-of-range positions report false. Per the
// dynamic-network model, a node knows its currently active incident edges.
func (c *Context) EdgeActive(i int) bool {
	if i < 0 || i >= c.Degree() {
		return false
	}
	if c.sh.net.active == nil {
		return true
	}
	return c.sh.net.active[c.sh.net.off[c.id]+int32(i)]
}

// ActiveDegree returns this node's number of active incident edges in the
// current round (= Degree() on static networks). O(1): the engine maintains
// the counter as the provider toggles edges.
func (c *Context) ActiveDegree() int {
	if c.sh.net.active == nil {
		return c.Degree()
	}
	return int(c.sh.net.activeDeg[c.id])
}

// nodeRNG is one node's RNG state: a rand.Rand over the node's own
// splitmix64, kept together so a shard's chunk holds both.
type nodeRNG struct {
	src splitmix64
	r   rand.Rand
}

// Rand returns this node's private deterministic RNG. Its first call in a
// run seeds it from (run seed, node id), so the stream does not depend on
// the round of first use or on earlier runs of a reused network. The state
// is carved from the owning shard's chunk on the node's first call ever, so
// nodes that never draw cost nothing.
func (c *Context) Rand() *rand.Rand {
	if !c.seeded {
		if c.rng == nil {
			nr := &c.sh.rngs.carve(1)[0]
			nr.r = *rand.New(&nr.src)
			c.rng = &nr.r
		}
		c.rng.Seed(nodeSeed(c.sh.net.cfg.Seed, int(c.id)))
		c.seeded = true
	}
	return c.rng
}

// Publish records a protocol-state value for this node — the walk token's
// position, a witness-set mass, any single word the protocol is willing to
// reveal — readable by an adaptive adversary at the next round boundary via
// Topology.Published. One slab write; a no-op on static networks, where no
// adversary exists to read it. Publishing never affects the protocol's own
// execution or results: it only informs state-aware TopologyProviders.
func (c *Context) Publish(v int64) {
	if c.sh.net.published == nil {
		return
	}
	c.sh.net.published[c.id] = v
	c.sh.net.pubRound[c.id] = int32(c.sh.net.round)
}

// Send queues a message to neighbor `to` for delivery next round. The engine
// fills From. Sends to non-neighbors or with non-positive Bits abort the
// run. The neighbor is found by binary search of this node's sorted
// adjacency row; when the caller already knows the neighbor's row position,
// SendNbr skips the search.
func (c *Context) Send(to int, m Message) {
	if c.failed {
		return
	}
	slot := int32(-1)
	if to >= 0 && to < c.N() {
		slot = c.sh.net.slot(c.id, int32(to))
	}
	if slot < 0 {
		c.fail(&SendError{From: int(c.id), To: to, Round: c.sh.net.round, Reason: "not a neighbor"})
		return
	}
	if c.checkBits(int32(to), m.Bits) {
		c.deposit(slot, int32(to), m)
	}
}

// SendNbr queues a message to the i-th neighbor (the position in
// Neighbors()). It is the cheapest send: no lookup at all, just the CSR
// slot arithmetic. Loops over Neighbors() should prefer it.
func (c *Context) SendNbr(i int, m Message) {
	if c.failed {
		return
	}
	row := c.Neighbors()
	if i < 0 || i >= len(row) {
		c.fail(&SendError{From: int(c.id), To: -1, Round: c.sh.net.round, Reason: "neighbor index out of range"})
		return
	}
	if c.checkBits(row[i], m.Bits) {
		c.deposit(c.sh.net.off[c.id]+int32(i), row[i], m)
	}
}

// Broadcast sends the same message to every neighbor, in row order. The
// message is validated once; a bandwidth violation stops the loop at the
// offending neighbor, as it would stop a loop of SendNbr calls.
func (c *Context) Broadcast(m Message) {
	row := c.Neighbors()
	if c.failed || len(row) == 0 || !c.checkBits(row[0], m.Bits) {
		return
	}
	lo := c.sh.net.off[c.id]
	for i, v := range row {
		c.deposit(lo+int32(i), v, m)
		if c.failed {
			return
		}
	}
}

// checkBits reports whether a send of the given size is legal, recording
// the abort error when it is not.
func (c *Context) checkBits(to, bits int32) bool {
	if bits <= 0 {
		c.fail(&SendError{From: int(c.id), To: int(to), Round: c.sh.net.round, Reason: "non-positive Bits"})
		return false
	}
	return true
}

// deposit routes a validated message into the sharded mailbox of the
// destination's owner, writing the outbox entry in place. Volatile messages
// aimed at an inactive edge of a dynamic network are bounced instead:
// redirected into the sender's own mailbox column with FlagBounced set and
// From naming the unreachable neighbor, arriving next round like any other
// message. The bounce is the link-layer failure notification of the dynamic
// model — no bandwidth is charged because nothing traversed the edge — and
// it is what lets walk-token protocols detect edge loss and restart the
// hop.
func (c *Context) deposit(slot, to int32, m Message) {
	sh, net := c.sh, c.sh.net
	if net.active != nil && m.Flags&FlagVolatile != 0 && !net.active[slot] {
		sh.drops++
		var p *pend
		sh.out[sh.idx], p = extend(sh.out[sh.idx], &sh.stepGrows)
		p.to = c.id
		p.msg = m
		p.msg.From = to
		p.msg.Flags |= FlagBounced
		return
	}
	// Charge the edge's use in this round. Only the edge's sender touches
	// its slot, so this is safe under parallel stepping; the round stamp
	// makes the reset lazy.
	pg := sh.page // the sender's page, set when it was stepped
	e := &pg.edges[slot-pg.base]
	if st := net.stampBase + uint32(net.round); e.stamp != st {
		e.stamp, e.bits = st, 0
	}
	e.bits += m.Bits
	used := int(e.bits)
	if used > sh.maxEdgeBits {
		sh.maxEdgeBits = used
	}
	if used > net.bandwidth {
		c.fail(&BandwidthError{From: int(c.id), To: int(to), Round: net.round, Used: used, Limit: net.bandwidth})
		return
	}
	if uint32(to-net.lo) >= uint32(net.hi-net.lo) {
		// Cluster mode: the destination lives on another peer. Queue the
		// wire record in this shard's per-peer outbox; the transport batches
		// the shard outboxes into one frame per peer at the round boundary.
		// The bandwidth charge already happened above — the sender owns the
		// directed edge's accounting regardless of where the receiver runs.
		q := net.peerOf(to)
		var r *frame.Record
		sh.wireOut[q], r = extend(sh.wireOut[q], &sh.stepGrows)
		r.To, r.From, r.Seq = to, c.id, m.Seq
		r.Value, r.Aux, r.Bits = m.Value, m.Aux, m.Bits
		r.Kind, r.Flags = m.Kind, m.Flags
		return
	}
	s := net.shardOf(to)
	var p *pend
	sh.out[s], p = extend(sh.out[s], &sh.stepGrows)
	p.to = to
	p.msg = m
	p.msg.From = c.id
}

// fail records a send error: the node sends nothing more this run, and the
// shard keeps the first error in stepping order for the round report.
func (c *Context) fail(err error) {
	c.failed = true
	if c.sh.err == nil {
		c.sh.err = err
	}
}

// extend lengthens buf by one element and returns it with a pointer to the
// new element, whose previous contents the caller must overwrite. A growth
// of the backing array is counted in *grows. The capacity doubles: append
// grows large slices by a quarter, which allocates about 5× the final size
// on the way to it instead of 2×, and a fresh network's outboxes grow
// within its first Run.
func extend[T any](buf []T, grows *int64) ([]T, *T) {
	n := len(buf)
	if n == cap(buf) {
		*grows++
		buf = append(make([]T, 0, max(2*n, 4)), buf...)
	}
	buf = buf[:n+1]
	return buf, &buf[n]
}

// Halt marks this node as permanently finished. The run ends when every
// node has halted.
func (c *Context) Halt() { c.halted = true }

// Sleep declares that this node has no scheduled activity for the next
// `rounds` rounds. The engine does not step it until then, but any message
// arrival wakes it immediately (the skipped rounds still elapse globally).
// Purely an optimization: correctness never depends on it. When every live
// node sleeps and no message is in flight, the engine fast-forwards whole
// rounds (see Stats.SkippedRounds).
func (c *Context) Sleep(rounds int) {
	if rounds > 0 {
		c.sleep = int32(c.sh.net.round + rounds)
		c.haltAtWake = false
	}
}

// SleepThenHalt is a Sleep whose end is a halt: the node halts at the start
// of round Round()+rounds without being stepped again, unless a message
// reaches it first — then it is stepped as after any Sleep, and must decide
// again. A node that knows the round its run ends for it (Algorithm 1's
// ℓ+1) thus costs nothing in that round. rounds ≤ 0 halts at once.
func (c *Context) SleepThenHalt(rounds int) {
	if rounds <= 0 {
		c.halted = true
		return
	}
	c.sleep = int32(c.sh.net.round + rounds)
	c.haltAtWake = true
}
