package congest

import (
	"errors"
	"math/bits"
	"math/rand"
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

	// rowOff[u] is the CSR start of u's adjacency row. The slot of the
	// directed edge u→(i-th neighbor) is rowOff[u]+i; that slot indexes the
	// per-directed-edge accounting arrays below. Each directed edge u→v is
	// written only by the shard that owns u, so parallel stepping is
	// race-free.
	rowOff []int32
	// slots is the reverse directed-edge index: a precomputed open-addressed
	// map from the pair (u,v) to the CSR slot of u→v, making Send O(1)
	// (the seed engine ran a binary search per message).
	slots edgeSlotIndex

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
	// order so providers can toggle by edge index without hash lookups.
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
	// multi-source sweeps pay the construction cost — the edge-slot hash,
	// the context/RNG slabs, the inbox arena — once per worker instead of
	// once per source.
	ctxs       []Context
	procs      []Process
	owner      []int32 // owner[u] = owning shard index, or -1-peer for remote vertices
	shards     []shard
	pool       *workerPool
	rngSrcs    []splitmix64
	rngs       []rand.Rand
	inboxArena []Message

	// transport executes the deliver phase: the in-memory mailbox drain
	// (loopbackTransport) or the cluster frame exchange (wireTransport).
	// Selected once at construction from Config.Cluster.
	transport transport
	// wireOut[p] is the merged per-round record batch headed to peer p;
	// wireIn[p] the decoded batch received from p, both nil outside cluster
	// mode. wireIn aliases the Exchanger's buffers and is valid only during
	// the deliver phase it was fetched for.
	wireOut [][]frame.Record
	wireIn  [][]frame.Record

	stats Stats
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
		rowOff:    make([]int32, n+1),
	}
	for v := 0; v < n; v++ {
		net.rowOff[v+1] = net.rowOff[v] + int32(g.Degree(v))
	}
	// Per-directed-edge accounting is sized by the materialized rows
	// (rowOff[n]): exactly 2·M on a full graph, and ~1/P of that on a
	// cluster peer's graph shard, where only owned and halo rows exist.
	local := int(net.rowOff[n])
	net.edgeBits = make([]int32, local)
	net.edgeStamp = make([]int32, local)
	for i := range net.edgeStamp {
		net.edgeStamp[i] = -1
	}
	net.slots = buildEdgeSlots(g, net.rowOff)
	if cfg.Cluster != nil {
		net.transport = wireTransport{}
	} else {
		net.transport = loopbackTransport{}
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
						su: net.rowOff[u] + int32(i),
						sv: net.slots.lookup(v, int32(u)),
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

// resetRunState rewinds every piece of per-run state so the network can
// execute another Run on the same graph while reusing all allocated slabs:
// the round counter and statistics restart from zero, the bandwidth stamps
// are invalidated, and each shard's live list, mailboxes and accumulators
// are truncated in place (capacity — the warm buffer sizes
// reached by the previous run — is kept, which is the point of reuse).
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

// Bandwidth returns the per-edge budget in bits (CONGEST mode).
func (n *Network) Bandwidth() int { return n.bandwidth }

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

// edgeSlotIndex maps a directed vertex pair (u,v) to the CSR slot of u→v in
// O(1): an open-addressed hash table with linear probing, built once at
// network construction. Key 0 is the empty sentinel; the pair (0,0) can
// never occur because the graph has no self-loops.
type edgeSlotIndex struct {
	mask  uint64
	shift uint
	keys  []uint64
	vals  []int32
}

func pairKey(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

func hashKey(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

func buildEdgeSlots(g *graph.Graph, rowOff []int32) edgeSlotIndex {
	directed := int(rowOff[len(rowOff)-1]) // materialized directed edges (2·M on a full graph)
	size := 2
	for size < 2*directed {
		size <<= 1
	}
	idx := edgeSlotIndex{
		mask:  uint64(size - 1),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		keys:  make([]uint64, size),
		vals:  make([]int32, size),
	}
	for u := 0; u < g.N(); u++ {
		row := g.Neighbors(u)
		for i, v := range row {
			key := pairKey(int32(u), v)
			pos := hashKey(key) >> idx.shift
			for idx.keys[pos] != 0 {
				pos = (pos + 1) & idx.mask
			}
			idx.keys[pos] = key
			idx.vals[pos] = rowOff[u] + int32(i)
		}
	}
	return idx
}

// lookup returns the CSR slot of u→v, or -1 when v is not a neighbor of u.
func (idx *edgeSlotIndex) lookup(u, v int32) int32 {
	key := pairKey(u, v)
	pos := hashKey(key) >> idx.shift
	for {
		switch idx.keys[pos] {
		case key:
			return idx.vals[pos]
		case 0:
			return -1
		}
		pos = (pos + 1) & idx.mask
	}
}
