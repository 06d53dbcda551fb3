package congest

// This file is the transport seam of the round engine: the deliver phase —
// moving one round's queued messages from the per-shard outboxes into the
// destination inboxes — goes through the transport interface instead of
// assuming every destination lives in this process.
//
// Two implementations exist. loopbackTransport is the classical
// single-process path: every vertex is local, delivery is the parallel
// in-memory drain of the W×W sharded mailbox matrix, and the behavior (and
// allocation profile) is byte-identical to the engine before the seam
// existed. wireTransport (cluster.go) is the multi-process path: each peer
// owns a contiguous vertex range, remote-destined messages are batched into
// one frame per peer per round, and the deliver phase merges the local
// matrix with the decoded inbound frames in canonical sender order.

// transport executes the deliver phase of one round. Implementations are
// in-package: the seam is selected by Config.Cluster (nil = loopback), not
// injected, so the zero-alloc loopback path stays free of interface
// indirection inside the per-message loops.
type transport interface {
	// deliver moves every message queued in the current round into its
	// destination inbox and returns the round's global report: rep itself
	// on loopback, the fold of every peer's report in cluster mode. All
	// shard workers are quiescent when it is called; it runs the local
	// drain through runPhase. A non-nil error aborts the run (transport
	// failures are fatal: a peer cannot continue a lockstep computation
	// alone).
	deliver(n *Network, rep roundReport) (roundReport, error)
}

// loopbackTransport is the single-process deliver phase: the drain of the
// sharded mailbox matrix, whose work is the round's sent messages. It moves
// no bytes and sends no frames — Stats.WireBytes/FramesSent/FramesRecv stay
// zero.
type loopbackTransport struct{}

func (loopbackTransport) deliver(n *Network, rep roundReport) (roundReport, error) {
	n.runPhase(phaseDeliver, rep.sent)
	return rep, nil
}

// pend is one queued message in a sharded mailbox.
type pend struct {
	to  int32
	msg Message
}

// runDeliver drains every shard's mailbox destined to this shard, in shard
// order. Because shards are contiguous ascending id ranges and each shard
// steps in ascending id order, the drain reproduces the canonical
// (ascending sender, send order) inbox ordering for any worker count. On a
// cluster peer the same canonical order spans processes: inbound peer
// frames merge around the local matrix in ascending peer order
// (runDeliverWire).
func (sh *shard) runDeliver() {
	if sh.net.cfg.Cluster != nil {
		sh.runDeliverWire()
		return
	}
	sh.drainLocal()
}

// drainLocal drains the local mailbox matrix into this shard's inboxes.
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
			var m *Message
			dst.inbox, m = extend(dst.inbox, &sh.deliverGrows)
			*m = buf[i].msg
			m.Round = rnd
		}
		src.out[sh.idx] = buf[:0]
	}
}
