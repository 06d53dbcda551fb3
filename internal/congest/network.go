package congest

import (
	"errors"
	"runtime"

	"repro/internal/congest/frame"
	"repro/internal/graph"
)

// Network is a configured simulation instance.
type Network struct {
	g         *graph.Graph
	cfg       Config
	bandwidth int
	round     int

	// off and adj are the graph's own CSR arrays (shared, read-only). The
	// slot of the directed edge u→(i-th neighbor) is off[u]+i; that slot
	// indexes the per-directed-edge accounting arrays below. Each directed
	// edge u→v is written only by the shard that owns u, so parallel
	// stepping is race-free. Rows are sorted, so the slot of u→v is a
	// binary search of u's row (slot).
	off, adj []int32

	// Per-directed-edge CONGEST bandwidth accounting with lazy, stamped
	// per-round reset.
	edgeBits  []int32
	edgeStamp []int32

	// Dynamic-topology overlay (nil on static networks): per-directed-edge
	// activity plus per-node active-degree counters, sized for the superset
	// so churn never allocates. Both directions of an undirected edge are
	// always toggled together; writes happen only in the single-threaded
	// control loop (Topology.SetEdge), reads during the parallel phases.
	// edgePairs indexes the undirected edges in canonical (u < v, CSR)
	// order so providers can toggle by edge index without row searches.
	active    []bool
	activeDeg []int32
	edgePairs []edgePair
	topo      Topology

	// Protocol-published state for adaptive adversaries (dynamic networks
	// only): published[u] is u's latest Context.Publish value, pubRound[u]
	// the round it was written in (-1 = never this run). Each node writes
	// only its own slot during its Step, so parallel stepping is race-free;
	// providers read at round boundaries through Topology.Published.
	published []int64
	pubRound  []int32

	// Run state. The slabs are allocated on the first Run and reused by
	// every subsequent Run on the same network (see resetRunState), so
	// multi-source sweeps pay the construction cost — the context slab and
	// the inboxes and RNGs the shards carve — once per worker instead of
	// once per source.
	ctxs   []Context
	procs  []Process
	owner  []int32 // owner[u] = owning shard index, or -1-peer for remote vertices
	shards []shard
	pool   *workerPool

	// wireOut[p] is the merged per-round record batch headed to peer p;
	// wireIn[p] the decoded batch received from p, both nil outside cluster
	// mode. wireIn aliases the Exchanger's buffers and is valid only during
	// the deliver phase it was fetched for.
	wireOut [][]frame.Record
	wireIn  [][]frame.Record

	stats Stats

	// inlinePhases and pooledPhases count the phases runPhase executed on
	// the caller alone and on the pool, over the network's lifetime.
	inlinePhases, pooledPhases int64
}

// NewNetwork prepares a simulation of the given graph. The graph must be
// non-empty.
func NewNetwork(g *graph.Graph, cfg Config) (*Network, error) {
	if g.N() == 0 {
		return nil, errors.New("congest: empty graph")
	}
	if cfg.BandwidthBits == 0 {
		cfg.BandwidthBits = DefaultBandwidth(g.N())
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 64*g.N() + 1_000_000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cl := cfg.Cluster; cl != nil {
		if err := cl.validate(g.N(), &cfg); err != nil {
			return nil, err
		}
	}
	n := g.N()
	net := &Network{
		g:         g,
		cfg:       cfg,
		bandwidth: cfg.BandwidthBits,
	}
	net.off, net.adj = g.CSR()
	// Per-directed-edge accounting is sized by the materialized rows: exactly
	// 2·M on a full graph, and ~1/P of that on a cluster peer's graph shard,
	// where only owned and halo rows exist.
	local := len(net.adj)
	net.edgeBits = make([]int32, local)
	net.edgeStamp = make([]int32, local) // rewound by every Run (resetRunState)
	if cfg.Topology != nil {
		net.active = make([]bool, 2*g.M())
		net.activeDeg = make([]int32, n)
		net.edgePairs = make([]edgePair, 0, g.M())
		for u := 0; u < n; u++ {
			for i, v := range g.Neighbors(u) {
				if int32(u) < v {
					net.edgePairs = append(net.edgePairs, edgePair{
						u: int32(u), v: v,
						su: net.off[u] + int32(i),
						sv: net.slot(v, int32(u)),
					})
				}
			}
		}
		net.topo = Topology{net: net}
		net.published = make([]int64, n)
		net.pubRound = make([]int32, n)
	}
	return net, nil
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// SetSeed replaces the engine seed used by the next Run. Multi-source
// sweeps reuse one network per worker and reseed it between sources (each
// with a seed derived from the sweep's base seed), so per-source runs are
// reproducible and their RNG streams uncorrelated. Must not be called
// while a Run is in progress.
func (n *Network) SetSeed(seed int64) { n.cfg.Seed = seed }

// Seed returns the engine seed the next Run will use.
func (n *Network) Seed() int64 { return n.cfg.Seed }

// resetRunState rewinds every piece of per-run state before each Run, so
// a network can run again on the same graph reusing all allocated slabs:
// the round counter and statistics restart from zero, the bandwidth stamps
// are invalidated, and each shard's live list, mailboxes and accumulators
// are truncated in place (capacity — the warm buffer sizes reached by the
// previous run — is kept, which is the point of reuse).
func (n *Network) resetRunState() {
	n.round = 0
	n.stats = Stats{}
	for i := range n.edgeStamp {
		n.edgeStamp[i] = -1
	}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.live = sh.live[:0]
		for s := range sh.out {
			sh.out[s] = sh.out[s][:0]
		}
		sh.steps, sh.skips, sh.wakes, sh.halts = 0, 0, 0, 0
		sh.msgs, sh.bits, sh.drops = 0, 0, 0
		sh.stepGrows, sh.deliverGrows = 0, 0
		sh.maxEdgeBits = 0
		sh.minWake = noWake
		sh.err = nil
		for p := range sh.wireOut {
			sh.wireOut[p] = sh.wireOut[p][:0]
		}
	}
	for p := range n.wireOut {
		n.wireOut[p] = n.wireOut[p][:0]
	}
	n.wireIn = nil
}

// chargeEdge adds bits to the edge slot's usage in the current round and
// returns the new total. Uses a round stamp for O(1) lazy reset. Only the
// edge's sender ever touches slot ei, so this is safe under parallel
// stepping.
func (n *Network) chargeEdge(ei int32, b int32) int {
	if n.edgeStamp[ei] != int32(n.round) {
		n.edgeStamp[ei] = int32(n.round)
		n.edgeBits[ei] = 0
	}
	n.edgeBits[ei] += b
	return int(n.edgeBits[ei])
}

// slot returns the CSR slot of the directed edge u→v, or -1 when v is not
// a neighbor of u (or u's row is not materialized on this graph shard). It
// binary-searches u's sorted row; the halving step compiles to a
// conditional move, so the search takes no data-dependent branch.
func (n *Network) slot(u, v int32) int32 {
	base, end := n.off[u], n.off[u+1]
	for size := end - base; size > 1; size -= size >> 1 {
		if mid := base + size>>1; n.adj[mid] <= v {
			base = mid
		}
	}
	if base < end && n.adj[base] == v {
		return base
	}
	return -1
}
