package congest

// The deliver phase moves one round's queued messages from the per-shard
// outboxes into the destination inboxes. A single-process run drains the
// W×W sharded mailbox matrix in memory (deliver); a cluster peer also
// batches remote-destined messages into one frame per peer and merges the
// inbound frames around its local matrix in canonical sender order
// (exchange, cluster.go).

// deliver runs the round's deliver phase and returns its global report:
// rep itself in a single-process run, where the drain's work is the
// round's sent messages, or the fold of every peer's report on a cluster
// peer. All shard workers are quiescent when it is called. A non-nil error
// aborts the run: a peer cannot continue a lockstep computation alone.
func (n *Network) deliver(rep roundReport) (roundReport, error) {
	if n.cfg.Cluster != nil {
		return n.exchange(rep)
	}
	n.runPhase(phaseDeliver, rep.sent)
	return rep, nil
}

// pend is one queued message in a sharded mailbox.
type pend struct {
	to  int32
	msg Message
}

// drainLocal drains every shard's mailbox destined to this shard into its
// inboxes, in shard order. Because shards are contiguous ascending id
// ranges and each shard steps in ascending id order, the drain reproduces
// the canonical (ascending sender, send order) inbox ordering for any
// worker count. On a cluster peer the same canonical order spans
// processes: inbound peer frames merge around the local matrix in
// ascending peer order (runDeliverWire).
func (sh *shard) drainLocal() {
	net := sh.net
	rnd := int32(net.round + 1)
	pages, runNo := net.pages, net.runNo
	for w := range net.shards {
		src := &net.shards[w]
		buf := src.out[sh.idx]
		for i := range buf {
			if buf[i].msg.Flags&FlagBounced == 0 {
				// Bounces are excluded from the message/bit accounting:
				// nothing traversed an edge (Stats.DroppedSends counts them).
				sh.msgs++
				sh.bits += int64(buf[i].msg.Bits)
			}
			to := buf[i].to
			// The common case of receiver(to) by hand: receiver is too
			// large to inline, and this is the per-message path.
			var dst *Context
			if pg := pages[to>>pageShift].Load(); pg != nil {
				dst = &pg.ctx[to&pageMask]
			}
			if dst == nil || dst.run != runNo || cap(dst.inbox) == 0 || dst.halted {
				if dst = sh.receiver(to); dst == nil {
					continue // counted, never read: drop instead of hoarding
				}
			}
			if len(dst.inbox) == 0 {
				sh.arrive(dst, rnd)
			}
			var m *Message
			dst.inbox, m = extend(dst.inbox, &sh.deliverGrows)
			*m = buf[i].msg
			m.Round = rnd
		}
		src.out[sh.idx] = buf[:0]
	}
}

// receiver returns the Context that a message to u is delivered into, or
// nil when u reads no mail: it halted, or it is not a node of this Run (a
// stale context of an eager Run whose round-0 Inits stopped at an error
// before u). A dormant node is activated by its first message, and a node
// gets, on its first delivery ever, an inbox of capacity deg(u) carved from
// the shard's slab.
func (sh *shard) receiver(u int32) *Context {
	c := sh.net.node(u)
	if c.run != sh.net.runNo && !sh.wakeDormant(c, u) || c.halted {
		return nil
	}
	if cap(c.inbox) == 0 {
		off := sh.net.off
		c.inbox = sh.inboxes.carve(int(off[u+1] - off[u]))[:0]
	}
	return c
}

// arrive records a node's first message of the round: it is due in round
// rnd, and a sleeper woken before its timed wake-up counts as a wakeup.
func (sh *shard) arrive(dst *Context, rnd int32) {
	if dst.sleep > rnd {
		sh.wakes++
	}
	sh.due.add(dst.id - sh.lo)
}
