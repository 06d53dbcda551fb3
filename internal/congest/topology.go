package congest

import "errors"

// This file is the dynamic-network extension of the round engine: a
// per-round edge-activity overlay on the static superset graph, driven by a
// TopologyProvider. The dynamic model follows Kuhn–Lynch–Oshman-style
// synchronous dynamic networks and the random-walk line of Das Sarma, Molla
// and Pandurangan ("Fast Distributed Computation in Dynamic Networks via
// Random Walks"): the vertex set is fixed, the edge set of round r is an
// arbitrary (here: provider-chosen, deterministic) subset of a static
// superset, and it changes only at round boundaries while every worker is
// quiescent.
//
// Everything is sized for the superset at construction time — the CSR rows,
// the shard mailboxes, the per-directed-edge activity and bandwidth arrays —
// so activating or deactivating edges never allocates: the steady-state
// round loop stays zero-allocation with churn running every round
// (Stats.TopologyChanges counts the toggles).

// TopologyProvider drives per-round topology churn on a dynamic network.
// Set one via Config.Topology; a nil provider means the classical static
// network.
//
// Start is called once per Run, after every superset edge has been reset to
// active and before any Process.Init runs; it establishes the round-0 edge
// set. ApplyRound is called at the beginning of every round r ≥ 1, before
// the step phase, with all workers quiescent — the round-r topology is
// exactly what the provider leaves behind, and it is frozen for the whole
// round (sends in round r travel over round-r edges, as in the synchronous
// dynamic-network model).
//
// Determinism contract: providers must derive all churn decisions from
// their own construction-time seed and the round number (the repository's
// models use sweep.DeriveSeed(seed, round) streams), never from wall-clock,
// map iteration, or worker identity. Providers must be stateless across
// rounds apart from what they read back from the Topology view: the view
// itself (edge on/off state) is the only mutable churn state, it lives in
// the network, and it is rewound by every Run — which is what makes one
// provider instance safely shareable by all the worker networks of a
// multi-source sweep.
type TopologyProvider interface {
	// Start establishes the round-0 topology. The view arrives with every
	// superset edge active.
	Start(t *Topology)
	// ApplyRound establishes the round-r topology by toggling edges on the
	// view. It runs single-threaded between rounds.
	ApplyRound(round int, t *Topology)
}

// AdaptiveProvider is a state-aware TopologyProvider: an adversary whose
// round decisions may read the protocol-published state through the view
// (Topology.Published) — the adaptive-adversary model of Das Sarma, Molla
// and Pandurangan, where the adversary sees the walk's position at the
// round boundary before choosing the round's edges. The interface is a
// capability marker: protocols consult it to decide whether to expose their
// state (core.TokenWalk pre-announces each hop under an adaptive provider,
// so the adversary's information is exactly the round-start state of the
// model, never more). Determinism contract unchanged: decisions must be a
// pure function of (construction seed, round, published state).
type AdaptiveProvider interface {
	TopologyProvider
	// Adaptive distinguishes state-aware adversaries from oblivious churn.
	Adaptive() bool
}

// IsAdaptive reports whether p is a state-aware adversary: an
// AdaptiveProvider whose Adaptive() returns true.
func IsAdaptive(p TopologyProvider) bool {
	ap, ok := p.(AdaptiveProvider)
	return ok && ap.Adaptive()
}

// Topology is the provider's mutable view of the network's edge-activity
// overlay. It is owned by the engine and valid only inside Start/ApplyRound
// callbacks; providers must not retain it.
type Topology struct {
	net *Network
}

// N returns the number of vertices of the superset graph.
func (t *Topology) N() int { return t.net.g.N() }

// EdgeOn reports whether the superset edge {u, v} is currently active.
// Non-edges of the superset report false.
func (t *Topology) EdgeOn(u, v int) bool {
	slot := t.slot(u, v)
	return slot >= 0 && t.net.active[slot]
}

// SetEdge activates or deactivates the superset edge {u, v} — both
// directions at once, keeping the overlay symmetric — and reports whether
// the state changed. Pairs that are not superset edges are a provider bug
// and panic: the dynamic model only ever removes and restores edges of the
// fixed superset. Providers iterating the whole edge set every round should
// prefer the index-based SetEdgeAt, which skips the two row searches.
func (t *Topology) SetEdge(u, v int, on bool) bool {
	n := t.net
	su, sv := t.slot(u, v), t.slot(v, u)
	if su < 0 || sv < 0 {
		panic(&SendError{From: u, To: v, Round: n.round, Reason: "topology: not a superset edge"})
	}
	return t.toggle(edgePair{u: int32(u), v: int32(v), su: su, sv: sv}, on)
}

// slot is Network.slot for provider-supplied ids: an id outside [0, N())
// names no superset edge.
func (t *Topology) slot(u, v int) int32 {
	if n := t.N(); u < 0 || u >= n || v < 0 || v >= n {
		return -1
	}
	return t.net.slot(int32(u), int32(v))
}

// Edges returns the number of undirected superset edges. Edge index e in
// [0, Edges()) follows the canonical (u < v, CSR) order — the same order
// internal/dyngraph enumerates edges in, so models and engine agree on
// indices by construction.
func (t *Topology) Edges() int { return len(t.net.edgePairs) }

// EdgeOnAt reports whether the canonical edge with index e is active: the
// O(1) array-read counterpart of EdgeOn for whole-edge-set sweeps.
func (t *Topology) EdgeOnAt(e int) bool { return t.net.active[t.net.edgePairs[e].su] }

// SetEdgeAt is SetEdge addressed by canonical edge index: no row searches,
// for providers that touch every edge every round.
func (t *Topology) SetEdgeAt(e int, on bool) bool { return t.toggle(t.net.edgePairs[e], on) }

// toggle applies one symmetric activity change and maintains the degree
// counters and the churn statistics.
func (t *Topology) toggle(p edgePair, on bool) bool {
	n := t.net
	if n.active[p.su] == on {
		return false
	}
	n.active[p.su] = on
	n.active[p.sv] = on
	if on {
		n.activeDeg[p.u]++
		n.activeDeg[p.v]++
	} else {
		n.activeDeg[p.u]--
		n.activeDeg[p.v]--
	}
	n.stats.TopologyChanges++
	return true
}

// edgePair is one undirected superset edge with its two directed CSR slots.
type edgePair struct{ u, v, su, sv int32 }

// ActiveDegree returns u's current number of active incident edges.
func (t *Topology) ActiveDegree(u int) int { return int(t.net.activeDeg[u]) }

// Published returns the value node u last published this run via
// Context.Publish together with the round it was published in, or round -1
// when u has not published yet. Reads happen at round boundaries (all
// workers quiescent), so the snapshot is exactly the state after the
// previous round's step phase — the information an adaptive adversary is
// entitled to under the dynamic-network model.
func (t *Topology) Published(u int) (value int64, round int) {
	n := t.net
	if n.published == nil {
		return 0, -1
	}
	return n.published[u], int(n.pubRound[u])
}

// ActiveEdges returns the current number of active undirected edges.
func (t *Topology) ActiveEdges() int {
	total := 0
	for _, d := range t.net.activeDeg {
		total += int(d)
	}
	return total / 2
}

// resetTopology rewinds the activity overlay to the all-active superset and
// clears the publication slab. Called at the start of every dynamic Run,
// before the provider's Start.
func (n *Network) resetTopology() {
	for i := range n.active {
		n.active[i] = true
	}
	for u := 0; u < n.g.N(); u++ {
		n.activeDeg[u] = int32(n.g.Degree(u))
	}
	for u := range n.pubRound {
		n.published[u] = 0
		n.pubRound[u] = -1
	}
}

// ProbeRounds drives the network's topology provider through rounds
// 0..rounds without running any processes, invoking observe after every
// application: round 0 right after the provider's Start, then once per
// ApplyRound. It is the test-utility entry point for verifying topology
// properties (e.g. the Kuhn–Lynch–Oshman T-interval-connectivity check in
// internal/dyngraph) against exactly the edge sets a real Run would see.
// The publication slab stays empty throughout, so adaptive adversaries
// probe their no-information behavior. Requires a dynamic network.
func (n *Network) ProbeRounds(rounds int, observe func(round int, t *Topology)) error {
	if n.cfg.Topology == nil {
		return errors.New("congest: ProbeRounds needs a dynamic network (Config.Topology)")
	}
	n.resetTopology()
	n.cfg.Topology.Start(&n.topo)
	observe(0, &n.topo)
	for r := 1; r <= rounds; r++ {
		n.cfg.Topology.ApplyRound(r, &n.topo)
		observe(r, &n.topo)
	}
	return nil
}
