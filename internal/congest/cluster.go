package congest

import (
	"errors"
	"fmt"

	"repro/internal/congest/frame"
)

// Cluster mode: one CONGEST run computed by N cooperating processes. Each
// peer constructs the full Network (graph, edge index, topology overlay) but
// owns — steps, seeds, delivers to — only a contiguous vertex range
// [Peer·n/Peers, (Peer+1)·n/Peers). Remote-destined messages are batched
// into one frame per peer per round (package frame) and exchanged through
// the ClusterConfig.Exchange hook — every round, to every peer, even when
// empty. Round control rides the same frames: each frame's header carries
// the sender's round report (frame.Report), and after the exchange every
// peer folds all P reports itself. The global decisions — stop, round-limit
// abort, error abort, fast-forward — are then taken by Run's one round loop
// from the same folded values on every peer, in the same round, with no
// coordinator on the round path.
//
// Determinism contract: a cluster run with any peer count produces results
// DeepEqual to the single-process run with the same seed. Three properties
// carry it: per-node RNG streams depend only on (seed, id); oblivious
// topology providers are pure functions of (seed, round) and are replayed
// identically on every peer; and the deliver phase reproduces the canonical
// (ascending sender id, send order) inbox ordering across processes by
// merging inbound peer frames around the local mailbox matrix in ascending
// peer order (peers own ascending id ranges, and each frame is filled in
// that same canonical order by its sender).

// Exchanger moves one round's frames between peers. Exchange is called
// exactly once per round by every peer — even when every outbox is empty,
// and in the round the peer fails — after its step phase and before its
// deliver phase.
type Exchanger interface {
	// Exchange sends out[q], headed by this peer's round report rep, to
	// every peer q (out[self] is ignored) and returns the records and
	// reports the other peers sent this round (in[self] and reps[self] are
	// zero). It blocks until every inbound frame for the round has arrived.
	// The returned slices remain valid until the next Exchange call; the
	// engine finishes delivering before it exchanges again.
	Exchange(round int, rep frame.Report, out [][]frame.Record) (in [][]frame.Record, reps []frame.Report, err error)
}

// ClusterConfig makes a Network one peer of a multi-process run. Cluster
// runs are restricted to what distributes without a global view: no OnRound
// callback, and no adaptive topology providers (published protocol state is
// per-peer); oblivious providers work — every peer replays the same (seed, round)
// deterministic churn on its own full overlay copy.
type ClusterConfig struct {
	// Peer is this process's index in [0, Peers).
	Peer int
	// Peers is the number of cooperating processes (≥ 2, ≤ the vertex
	// count so every peer owns at least one vertex).
	Peers int
	// Exchange moves the per-round frames and their reports (required).
	Exchange Exchanger
}

// validate rejects configurations that cannot hold the determinism
// contract; called by NewNetwork.
func (cl *ClusterConfig) validate(n int, cfg *Config) error {
	switch {
	case cl.Peers < 2:
		return errors.New("congest: cluster mode needs at least 2 peers")
	case cl.Peer < 0 || cl.Peer >= cl.Peers:
		return fmt.Errorf("congest: cluster peer %d out of range [0,%d)", cl.Peer, cl.Peers)
	case cl.Peers > n:
		return fmt.Errorf("congest: %d cluster peers over %d nodes: every peer must own a vertex", cl.Peers, n)
	case cl.Exchange == nil:
		return errors.New("congest: cluster mode needs an Exchanger")
	case cfg.OnRound != nil:
		return errors.New("congest: OnRound is unavailable in cluster mode (no peer sees the whole network)")
	case IsAdaptive(cfg.Topology):
		return errors.New("congest: adaptive topology providers are unavailable in cluster mode (published state is per-peer)")
	}
	return nil
}

// wireTransport is the cluster deliver phase: merge the shards' remote
// outboxes into one record batch per peer, exchange frames headed by the
// round reports, fold the reports, then run the halo-aware local drain
// (shard.runDeliverWire) over the inbound frames.
type wireTransport struct{}

func (wireTransport) deliver(n *Network, rep roundReport) (roundReport, error) {
	cl := n.cfg.Cluster
	for p := range n.wireOut {
		n.wireOut[p] = n.wireOut[p][:0]
	}
	for w := range n.shards {
		sh := &n.shards[w]
		for p := range sh.wireOut {
			// Shards hold ascending id ranges and step in ascending id
			// order, so appending shard by shard preserves the canonical
			// frame order.
			n.wireOut[p] = append(n.wireOut[p], sh.wireOut[p]...)
			sh.wireOut[p] = sh.wireOut[p][:0]
		}
	}
	hdr := frame.Report{Stepped: rep.stepped, Sent: rep.sent, Halts: int32(rep.halts), MinWake: rep.minWake}
	if rep.err != nil {
		hdr.Err = rep.err.Error()
	}
	in, reps, err := cl.Exchange.Exchange(n.round, hdr, n.wireOut)
	if err != nil {
		return roundReport{}, fmt.Errorf("congest: cluster exchange (round %d): %w", n.round, err)
	}
	n.wireIn = in
	// Fold in ascending peer order, so abort carries the first failing
	// peer's text on every peer that did not fail itself.
	g := rep
	for p := range reps {
		if p == cl.Peer {
			continue
		}
		r := &reps[p]
		g.stepped += r.Stepped
		g.sent += r.Sent
		g.halts += int(r.Halts)
		g.minWake = min(g.minWake, r.MinWake)
		if g.abort == "" {
			g.abort = r.Err
		}
		n.stats.FramesSent++
		n.stats.WireBytes += int64(frame.OverheadBytes + min(len(hdr.Err), frame.MaxErrBytes) + frame.RecordBytes*len(n.wireOut[p]))
	}
	n.stats.FramesRecv += int64(cl.Peers - 1)
	// The drain's work is this peer's outbound sends (its local matrix and
	// wire batches) plus the inbound records it scans.
	work := rep.sent
	for _, recs := range in {
		work += int64(len(recs))
	}
	n.runPhase(phaseDeliver, work)
	return g, nil
}

// runDeliverWire is the cluster variant of the deliver drain: inbound peer
// frames merge around the local mailbox matrix in ascending peer order,
// reproducing the canonical (ascending sender, send order) inbox ordering
// across process boundaries. Bounces never cross the wire (they are
// sender-local by construction), so inbound records all count as delivered
// traffic.
func (sh *shard) runDeliverWire() {
	net := sh.net
	cl := net.cfg.Cluster
	rnd := int32(net.round + 1)
	for p := 0; p < cl.Peers; p++ {
		if p == cl.Peer {
			sh.drainLocal()
			continue
		}
		for i := range net.wireIn[p] {
			r := &net.wireIn[p][i]
			if r.To < sh.lo || r.To >= sh.hi {
				continue
			}
			sh.msgs++
			sh.bits += int64(r.Bits)
			dst := &net.ctxs[r.To]
			if dst.halted {
				continue
			}
			if dst.sleep > rnd && len(dst.inbox) == 0 {
				sh.wakes++
			}
			var m *Message
			dst.inbox, m = extend(dst.inbox, &sh.deliverGrows)
			m.From, m.Round = r.From, rnd
			m.Kind, m.Flags, m.Seq = r.Kind, r.Flags, r.Seq
			m.Value, m.Aux, m.Bits = r.Value, r.Aux, r.Bits
		}
	}
}

// MergeStats folds the per-peer Stats of one cluster run into the Stats the
// single-process run would report — with three deliberate exceptions.
// Traffic and liveness counters sum; MaxEdgeBits is a max; the lockstep
// counters (Rounds, SkippedRounds, TopologyChanges) are identical on every
// peer and taken from the first; HaltedAll holds only if it holds
// everywhere. The exceptions are the execution-artifact counters: StepGrows
// and DeliverGrows describe per-process buffer warmup (they already vary
// with the worker count in loopback runs) and the wire counters
// (WireBytes, FramesSent, FramesRecv) describe the transport itself — all
// of which are zero in a single-process run's Stats only by accident of
// execution, so comparisons should mask them (as the determinism tests do).
func MergeStats(sts []Stats) Stats {
	if len(sts) == 0 {
		return Stats{}
	}
	m := sts[0]
	for _, s := range sts[1:] {
		m.Messages += s.Messages
		m.Bits += s.Bits
		m.ActiveSteps += s.ActiveSteps
		m.SleepSkips += s.SleepSkips
		m.Wakeups += s.Wakeups
		m.DroppedSends += s.DroppedSends
		m.StepGrows += s.StepGrows
		m.DeliverGrows += s.DeliverGrows
		m.WireBytes += s.WireBytes
		m.FramesSent += s.FramesSent
		m.FramesRecv += s.FramesRecv
		if s.MaxEdgeBits > m.MaxEdgeBits {
			m.MaxEdgeBits = s.MaxEdgeBits
		}
		m.HaltedAll = m.HaltedAll && s.HaltedAll
	}
	return m
}
