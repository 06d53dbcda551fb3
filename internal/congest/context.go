package congest

import (
	"math/rand"

	"repro/internal/congest/frame"
)

// Context is the per-node view of the network, passed to Init and Step.
// Contexts are owned by the engine; algorithms must not retain them across
// rounds.
type Context struct {
	net    *Network
	sh     *shard // the shard (worker) that owns this node
	id     int32
	inbox  []Message
	rng    *rand.Rand
	halted bool
	sleep  int32 // absolute round before which the node need not be stepped
	err    error
}

// ID returns this node's identifier in [0, N()).
func (c *Context) ID() int { return int(c.id) }

// N returns the number of nodes (known to all nodes per the model, §1.1).
func (c *Context) N() int { return c.net.g.N() }

// M returns the number of edges (known to all nodes per the model, §1.1).
func (c *Context) M() int { return c.net.g.M() }

// Round returns the current global round (0 during Init).
func (c *Context) Round() int { return c.net.round }

// Degree returns this node's degree.
func (c *Context) Degree() int { return c.net.g.Degree(int(c.id)) }

// Neighbors returns this node's neighbor ids (shared slice, do not modify).
func (c *Context) Neighbors() []int32 { return c.net.g.Neighbors(int(c.id)) }

// Inbox returns the messages delivered to this node since it was last
// stepped, ordered by (round, sender). The slice is reused; copy anything
// retained across rounds.
func (c *Context) Inbox() []Message { return c.inbox }

// Dynamic reports whether the network runs under a topology provider. On
// static networks every edge is permanently active.
func (c *Context) Dynamic() bool { return c.net.active != nil }

// EdgeActive reports whether the edge to the i-th neighbor (the position in
// Neighbors()) is active in the current round. Static networks report true
// for every valid position; out-of-range positions report false. Per the
// dynamic-network model, a node knows its currently active incident edges.
func (c *Context) EdgeActive(i int) bool {
	if i < 0 || i >= c.Degree() {
		return false
	}
	if c.net.active == nil {
		return true
	}
	return c.net.active[c.net.rowOff[c.id]+int32(i)]
}

// ActiveDegree returns this node's number of active incident edges in the
// current round (= Degree() on static networks). O(1): the engine maintains
// the counter as the provider toggles edges.
func (c *Context) ActiveDegree() int {
	if c.net.active == nil {
		return c.Degree()
	}
	return int(c.net.activeDeg[c.id])
}

// Rand returns this node's private deterministic RNG.
func (c *Context) Rand() *rand.Rand { return c.rng }

// Publish records a protocol-state value for this node — the walk token's
// position, a witness-set mass, any single word the protocol is willing to
// reveal — readable by an adaptive adversary at the next round boundary via
// Topology.Published. One slab write; a no-op on static networks, where no
// adversary exists to read it. Publishing never affects the protocol's own
// execution or results: it only informs state-aware TopologyProviders.
func (c *Context) Publish(v int64) {
	if c.net.published == nil {
		return
	}
	c.net.published[c.id] = v
	c.net.pubRound[c.id] = int32(c.net.round)
}

// Send queues a message to neighbor `to` for delivery next round. The engine
// fills From. Sends to non-neighbors or with non-positive Bits abort the
// run. The neighbor lookup is O(1) via the precomputed edge-slot index; when
// the caller already knows the neighbor's adjacency-row position, SendNbr
// avoids even that.
func (c *Context) Send(to int, m Message) {
	if c.err != nil {
		return
	}
	slot := c.net.slots.lookup(c.id, int32(to))
	if slot < 0 {
		c.err = &SendError{From: int(c.id), To: to, Round: c.net.round, Reason: "not a neighbor"}
		return
	}
	c.deposit(slot, int32(to), m)
}

// SendNbr queues a message to the i-th neighbor (the position in
// Neighbors()). It is the cheapest send: no lookup at all, just the CSR
// slot arithmetic. Broadcast and loops over Neighbors() should prefer it.
func (c *Context) SendNbr(i int, m Message) {
	if c.err != nil {
		return
	}
	row := c.net.g.Neighbors(int(c.id))
	if i < 0 || i >= len(row) {
		c.err = &SendError{From: int(c.id), To: -1, Round: c.net.round, Reason: "neighbor index out of range"}
		return
	}
	c.deposit(c.net.rowOff[c.id]+int32(i), row[i], m)
}

// deposit routes a validated message into the sharded mailbox of the
// destination's owner. Volatile messages aimed at an inactive edge of a
// dynamic network are bounced instead: redirected into the sender's own
// mailbox column with FlagBounced set and From naming the unreachable
// neighbor, arriving next round like any other message. The bounce is the
// link-layer failure notification of the dynamic model — no bandwidth is
// charged because nothing traversed the edge — and it is what lets
// walk-token protocols detect edge loss and restart the hop.
func (c *Context) deposit(slot, to int32, m Message) {
	if m.Bits <= 0 {
		c.err = &SendError{From: int(c.id), To: int(to), Round: c.net.round, Reason: "non-positive Bits"}
		return
	}
	if c.net.active != nil && m.Flags&FlagVolatile != 0 && !c.net.active[slot] {
		c.sh.drops++
		m.From = to
		m.Flags |= FlagBounced
		s := c.net.owner[c.id]
		buf := c.sh.out[s]
		if len(buf) == cap(buf) {
			c.sh.stepGrows++
		}
		c.sh.out[s] = append(buf, pend{to: c.id, msg: m})
		return
	}
	used := c.net.chargeEdge(slot, m.Bits)
	if used > c.sh.maxEdgeBits {
		c.sh.maxEdgeBits = used
	}
	if used > c.net.bandwidth {
		c.err = &BandwidthError{From: int(c.id), To: int(to), Round: c.net.round, Used: used, Limit: c.net.bandwidth}
		return
	}
	m.From = c.id
	s := c.net.owner[to]
	if s < 0 {
		// Cluster mode: the destination lives on peer -1-s. Queue the wire
		// record in this shard's per-peer outbox; the transport batches the
		// shard outboxes into one frame per peer at the round boundary. The
		// bandwidth charge already happened above — the sender owns the
		// directed edge's accounting regardless of where the receiver runs.
		p := -1 - s
		buf := c.sh.wireOut[p]
		if len(buf) == cap(buf) {
			c.sh.stepGrows++
		}
		c.sh.wireOut[p] = append(buf, frame.Record{
			To: to, From: c.id, Seq: m.Seq,
			Value: m.Value, Aux: m.Aux, Bits: m.Bits,
			Kind: m.Kind, Flags: m.Flags,
		})
		return
	}
	buf := c.sh.out[s]
	if len(buf) == cap(buf) {
		c.sh.stepGrows++
	}
	c.sh.out[s] = append(buf, pend{to: to, msg: m})
}

// Broadcast sends the same message to every neighbor.
func (c *Context) Broadcast(m Message) {
	for i := range c.Neighbors() {
		c.SendNbr(i, m)
	}
}

// Halt marks this node as permanently finished. The run ends when every
// node has halted.
func (c *Context) Halt() { c.halted = true }

// Sleep declares that this node has no scheduled activity for the next
// `rounds` rounds. The engine may skip stepping it, but any message arrival
// wakes it immediately (the skipped rounds still elapse globally). Purely an
// optimization: correctness never depends on it. When every live node
// sleeps and no message is in flight, the engine fast-forwards whole rounds
// (see Stats.SkippedRounds).
func (c *Context) Sleep(rounds int) {
	if rounds > 0 {
		c.sleep = int32(c.net.round + rounds)
	}
}
