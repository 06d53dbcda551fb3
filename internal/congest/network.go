package congest

import (
	"errors"
	"math/bits"
	"runtime"
	"sync/atomic"

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

	// stampBase+round stamps the CONGEST bandwidth use of the current
	// round (nodePage.edges): a use with another stamp is stale and reads
	// as zero. stampBase moves past every round of the previous Run, so no
	// Run rewinds the stamps.
	stampBase uint32

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

	// Run state, allocated on the first Run and reused by every later Run
	// on the same network (see resetRunState), so multi-source sweeps pay
	// the construction cost once per worker instead of once per source.
	// Contexts and bandwidth stamps live in node pages allocated on first
	// touch (pages.go), and a Context is activated per Run by its run
	// stamp, so a Run pays for the nodes it reaches. lo and hi bound the
	// owned range: the whole graph, or this cluster peer's slice. Shards are
	// equal ranges lo + w·(hi−lo)/W and peers graph.ShardRange, so the
	// owner of a vertex is arithmetic (shardOf, peerOf).
	pages  []atomic.Pointer[nodePage]
	lo, hi int32
	shards []shard
	// shardMul is the reciprocal shardOf multiplies by, 0 when the owned
	// range times the shard count does not fit in 32 bits.
	shardMul uint64
	pool     *workerPool
	runNo    uint32
	newProc  func(id int) Process // a dormant Run's factory; nil in an eager Run
	// dormantHalt is the round at which the current Run's dormant nodes
	// halt (0: they wait for mail); see Dormancy.
	dormantHalt int32

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
	net.pages = make([]atomic.Pointer[nodePage], (n+pageMask)>>pageShift)
	net.hi = int32(n)
	if cl := cfg.Cluster; cl != nil {
		lo, hi := graph.ShardRange(n, cl.Peer, cl.Peers)
		net.lo, net.hi = int32(lo), int32(hi)
	}
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
// move past the previous Run's rounds, and each shard's calendar,
// mailboxes and accumulators are truncated in place (capacity — the warm
// buffer sizes reached by the previous run — is kept, which is the point of
// reuse). Contexts are not visited: a new run stamp makes each one stale
// until its node is activated in this Run.
func (n *Network) resetRunState() {
	n.stampBase += uint32(n.round) + 1
	if n.stampBase >= 1<<31 {
		// Stamps would wrap within a Run of at most MaxInt32 rounds: clear
		// the touched pages once and restart the serial.
		for k := range n.pages {
			if pg := n.pages[k].Load(); pg != nil {
				clear(pg.edges)
			}
		}
		n.stampBase = 1
	}
	n.round = 0
	n.runNo++
	n.stats = Stats{}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.due.reset()
		sh.queue = sh.queue[:0]
		sh.live, sh.dormant = int64(sh.hi-sh.lo), 0
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

// shardOf returns the index of the shard that owns vertex u of the owned
// range: the largest w with lo + w·local/W ≤ u, which is
// ⌊((u−lo+1)·W − 1)/local⌋. The division is a multiply by shardMul, the
// 64-bit reciprocal of local, which is exact for 32-bit dividends (Lemire,
// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019); a
// division instruction would cost the message path about a fifth.
func (n *Network) shardOf(u int32) int {
	nw := uint64(len(n.shards))
	if nw == 1 {
		return 0
	}
	x := uint64(u-n.lo+1)*nw - 1
	if n.shardMul == 0 {
		return int(x / uint64(n.hi-n.lo)) // the dividend may exceed 32 bits
	}
	q, _ := bits.Mul64(n.shardMul, x)
	return int(q)
}

// peerOf returns the cluster peer that owns vertex u: the inverse of
// graph.ShardRange.
func (n *Network) peerOf(u int32) int {
	p := uint64(n.cfg.Cluster.Peers)
	return int((uint64(u+1)*p - 1) / uint64(n.g.N()))
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
