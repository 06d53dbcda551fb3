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
			dst := &net.ctxs[buf[i].to]
			if dst.halted {
				continue // counted, never read: drop instead of hoarding
			}
			if dst.sleep > rnd && len(dst.inbox) == 0 {
				sh.wakes++
			}
			if cap(dst.inbox) == 0 {
				sh.carveInbox(dst)
			}
			var m *Message
			dst.inbox, m = extend(dst.inbox, &sh.deliverGrows)
			*m = buf[i].msg
			m.Round = rnd
		}
		src.out[sh.idx] = buf[:0]
	}
}

// carveInbox gives dst, on its first delivery, an inbox of capacity
// deg(v) carved from the shard's slab.
func (sh *shard) carveInbox(dst *Context) {
	off := sh.net.off
	dst.inbox = sh.inboxes.carve(int(off[dst.id+1] - off[dst.id]))[:0]
}
