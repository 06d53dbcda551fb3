package congest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/congest/frame"
	"repro/internal/graph"
)

const (
	phaseStep int8 = iota
	phaseDeliver

	// maxShards bounds the W×W mailbox matrix; beyond this, extra workers
	// stop paying for themselves anyway.
	maxShards = 256
	// parallelMin is the network size below which the engine executes its
	// shards on one goroutine (the shard structure — and therefore the
	// result — is identical either way).
	parallelMin = 64

	// noWake is the minWake identity: the value a round report carries when
	// no stepped-over sleeper exists. Folding reports takes the minimum, so
	// the identity is the maximum representable round.
	noWake = int32(math.MaxInt32)
)

// shard owns a contiguous range of nodes: it steps them, receives their
// mail, and tracks their liveness. All fields are touched only by the
// owning worker during a phase; the control loop merges the accumulators
// between phases while every worker is quiescent.
type shard struct {
	net    *Network
	idx    int32
	lo, hi int32

	// live lists the shard's non-halted nodes in ascending id order; it is
	// compacted in place as nodes halt, so stepping is O(live), not
	// O(range).
	live []int32

	// out[s] buffers this shard's messages destined to shard s, in send
	// order. Truncated (never freed) after each deliver phase.
	out [][]pend

	// arena stores this shard's outgoing []int32 payload slabs.
	arena payloadArena

	// wireOut[p] buffers this shard's records destined to cluster peer p, in
	// send order (nil outside cluster mode). Truncated (never freed) when
	// the transport merges them into the per-peer frames.
	wireOut [][]frame.Record

	// Per-phase accumulators, merged and reset by the control loop.
	steps        int64
	skips        int64
	wakes        int64
	halts        int
	msgs         int64
	bits         int64
	drops        int64
	payloadWords int64
	stepGrows    int64
	deliverGrows int64
	maxEdgeBits  int
	minWake      int32
	err          error
}

// runStep steps every live node of the shard in ascending id order,
// compacting the live list as nodes halt.
func (sh *shard) runStep() {
	net := sh.net
	round := int32(net.round)
	w := 0
	for _, u := range sh.live {
		ctx := &net.ctxs[u]
		if ctx.sleep > round && len(ctx.inbox) == 0 {
			sh.skips++
			if ctx.sleep < sh.minWake {
				sh.minWake = ctx.sleep
			}
			sh.live[w] = u
			w++
			continue
		}
		ctx.sleep = 0
		net.procs[u].Step(ctx)
		sh.steps++
		ctx.inbox = ctx.inbox[:0]
		if ctx.err != nil && sh.err == nil {
			sh.err = ctx.err
		}
		if ctx.halted {
			sh.halts++
			continue
		}
		sh.live[w] = u
		w++
	}
	sh.live = sh.live[:w]
}

// workerPool keeps one goroutine per shard alive for the whole run; phases
// are broadcast over per-worker channels, so the steady-state round loop
// performs no goroutine spawns.
type workerPool struct {
	start []chan int8
	wg    sync.WaitGroup
}

func (n *Network) startPool() {
	p := &workerPool{start: make([]chan int8, len(n.shards))}
	for w := range p.start {
		ch := make(chan int8, 1)
		p.start[w] = ch
		go func(sh *shard) {
			for ph := range ch {
				if ph == phaseStep {
					sh.runStep()
				} else {
					sh.runDeliver()
				}
				p.wg.Done()
			}
		}(&n.shards[w])
	}
	n.pool = p
}

func (p *workerPool) stop() {
	for _, ch := range p.start {
		close(ch)
	}
}

// runPhase executes one phase across all shards, in parallel when a pool is
// running. Shard state is identical either way, so results never depend on
// the execution mode.
func (n *Network) runPhase(ph int8) {
	if n.pool == nil {
		for i := range n.shards {
			if ph == phaseStep {
				n.shards[i].runStep()
			} else {
				n.shards[i].runDeliver()
			}
		}
		return
	}
	n.pool.wg.Add(len(n.shards))
	for _, ch := range n.pool.start {
		ch <- ph
	}
	n.pool.wg.Wait()
}

// roundReport is one round's input to the global stop, abort and
// fast-forward decision. The loopback transport decides from the local
// report; a cluster peer decides from the fold of every peer's report,
// carried in the round's frame headers (frame.Report).
type roundReport struct {
	stepped int64 // Step invocations
	sent    int64 // non-bounced messages emitted; each is delivered exactly once
	halts   int
	minWake int32  // earliest wake-up round of a stepped-over sleeper, or noWake
	err     error  // this process's first run error
	abort   string // the first other peer's error text (cluster fold only)
}

// mergeStep folds the step-phase accumulators into the run statistics and
// returns the phase's report: nodes stepped, messages sent, nodes halted,
// the earliest wake-up round among skipped sleepers, and the first error in
// node-id order. It runs before the deliver phase, while the outboxes still
// hold exactly this round's sends.
func (n *Network) mergeStep() roundReport {
	rep := roundReport{minWake: noWake}
	for i := range n.shards {
		sh := &n.shards[i]
		rep.stepped += sh.steps
		n.stats.ActiveSteps += sh.steps
		sh.steps = 0
		n.stats.SleepSkips += sh.skips
		sh.skips = 0
		n.stats.StepGrows += sh.stepGrows
		sh.stepGrows = 0
		n.stats.PayloadWords += sh.payloadWords
		sh.payloadWords = 0
		// Bounces sit in the outboxes but traverse no edge.
		rep.sent -= sh.drops
		for _, o := range sh.out {
			rep.sent += int64(len(o))
		}
		for _, o := range sh.wireOut {
			rep.sent += int64(len(o))
		}
		n.stats.DroppedSends += sh.drops
		sh.drops = 0
		rep.halts += sh.halts
		sh.halts = 0
		if sh.maxEdgeBits > n.stats.MaxEdgeBits {
			n.stats.MaxEdgeBits = sh.maxEdgeBits
		}
		rep.minWake = min(rep.minWake, sh.minWake)
		sh.minWake = noWake
		if rep.err == nil && sh.err != nil {
			rep.err = sh.err
		}
	}
	return rep
}

// mergeDeliver folds the deliver-phase accumulators into the run
// statistics.
func (n *Network) mergeDeliver() {
	for i := range n.shards {
		sh := &n.shards[i]
		n.stats.Messages += sh.msgs
		sh.msgs = 0
		n.stats.Bits += sh.bits
		sh.bits = 0
		n.stats.Wakeups += sh.wakes
		sh.wakes = 0
		n.stats.DeliverGrows += sh.deliverGrows
		sh.deliverGrows = 0
	}
}

// finalize merges any outstanding per-shard accounting into the run
// statistics and returns a private copy: Run's caller keeps the Stats while
// the network's own accumulator is rewound by the next reuse.
func (n *Network) finalize() *Stats {
	n.stats.Rounds = n.round
	n.mergeStep()
	n.mergeDeliver()
	st := n.stats
	return &st
}

// Run executes the simulation. newProc is called once per node id to create
// its Process; the caller typically captures the created processes to read
// their outputs afterwards. Run returns the statistics and the first error
// (bandwidth violation, illegal send, or round-limit exhaustion), if any.
//
// Run may be called repeatedly on the same network (optionally reseeded via
// SetSeed between calls): every slab from the previous run — contexts, RNGs,
// mailboxes, arenas, inboxes — is reset in place and reused, so repeated
// runs amortize network construction. The returned Stats are a private copy,
// unaffected by later runs. Concurrent Runs on one network are not allowed.
func (n *Network) Run(newProc func(id int) Process) (*Stats, error) {
	nn := n.g.N()
	// lo/hi is the vertex range this process owns: the whole graph in
	// single-process mode, this peer's contiguous slice in cluster mode.
	// Only owned vertices are seeded, initialized, stepped and delivered to;
	// shards partition the owned range.
	lo, hi := 0, nn
	cl := n.cfg.Cluster
	if cl != nil {
		lo, hi = graph.ShardRange(nn, cl.Peer, cl.Peers)
	}
	local := hi - lo
	nw := n.cfg.Workers
	if nw > local {
		nw = local
	}
	if nw > maxShards {
		nw = maxShards
	}
	if nw < 1 {
		nw = 1
	}
	if n.ctxs == nil {
		// First run: allocate the run-state slabs. One RNG slab and one
		// inbox arena serve the whole network: the arena gives every node
		// an inbox segment of capacity degree (the common per-round
		// fan-in), so warmup growth is one allocation, not n. On huge
		// graphs the degree-capacity arena (48 bytes per directed edge)
		// would dwarf the CSR itself while sparse-traffic protocols never
		// fill it, so beyond the cap inboxes start empty and grow to
		// actual traffic instead.
		n.ctxs = make([]Context, nn)
		n.procs = make([]Process, nn)
		n.owner = make([]int32, nn)
		n.shards = make([]shard, nw)
		for w := range n.shards {
			slo, shi := lo+w*local/nw, lo+(w+1)*local/nw
			sh := &n.shards[w]
			sh.net = n
			sh.idx = int32(w)
			sh.lo, sh.hi = int32(slo), int32(shi)
			sh.out = make([][]pend, nw)
			sh.minWake = noWake
			sh.live = make([]int32, 0, shi-slo)
			for u := slo; u < shi; u++ {
				n.owner[u] = int32(w)
			}
			if cl != nil {
				sh.wireOut = make([][]frame.Record, cl.Peers)
			}
		}
		if cl != nil {
			// Remote vertices carry their owning peer in the owner slab,
			// encoded as -1-peer so deposit distinguishes local shard
			// routing (≥ 0) from wire routing (< 0) with one comparison.
			for p := 0; p < cl.Peers; p++ {
				if p == cl.Peer {
					continue
				}
				plo, phi := graph.ShardRange(nn, p, cl.Peers)
				for u := plo; u < phi; u++ {
					n.owner[u] = int32(-1 - p)
				}
			}
			n.wireOut = make([][]frame.Record, cl.Peers)
		}
		n.rngSrcs = make([]splitmix64, nn)
		n.rngs = make([]rand.Rand, nn)
		const inboxArenaCap = 1 << 20 // Message slots (~48 MB) — covers every bench-scale graph
		// Sized by the materialized rows (2·M full, ~1/P on a graph shard).
		if slots := int(n.rowOff[nn]); slots <= inboxArenaCap {
			n.inboxArena = make([]Message, slots)
		}
		for u := 0; u < nn; u++ {
			if n.inboxArena != nil {
				lo, hi := n.rowOff[u], n.rowOff[u+1]
				n.ctxs[u].inbox = n.inboxArena[lo:lo:hi]
			}
		}
	} else {
		n.resetRunState()
	}
	if n.cfg.Topology != nil {
		// Rewind the activity overlay to the all-active superset and let the
		// provider establish the round-0 edge set before any Init runs.
		n.resetTopology()
		n.cfg.Topology.Start(&n.topo)
	}
	for u := lo; u < hi; u++ {
		// Reseed in place: splitmix64 seeds in one word, so per-run RNG
		// setup is two slab passes, no allocation. rand.New's temporary
		// stays on the stack because only the dereferenced value is stored.
		// Cluster peers seed only their owned range; nodeSeed depends only
		// on (seed, id), so node u's stream is identical wherever it runs.
		n.rngSrcs[u].x = uint64(nodeSeed(n.cfg.Seed, u))
		n.rngs[u] = *rand.New(&n.rngSrcs[u])
		inbox := n.ctxs[u].inbox[:0] // keep the warm capacity across runs
		n.ctxs[u] = Context{
			net:   n,
			sh:    &n.shards[n.owner[u]],
			id:    int32(u),
			rng:   &n.rngs[u],
			inbox: inbox,
		}
		n.procs[u] = newProc(u)
	}
	if nw > 1 && local >= parallelMin {
		n.startPool()
		defer func() {
			n.pool.stop()
			n.pool = nil
		}()
	}

	// Round 0: Init every owned node (sequential: Init is cheap and often
	// empty). The Init round then closes like every other round.
	n.round = 0
	var initErr error
	for u := lo; u < hi; u++ {
		n.procs[u].Init(&n.ctxs[u])
		if initErr = n.ctxs[u].err; initErr != nil {
			break
		}
	}
	rep := n.mergeStep()
	rep.err = initErr
	for w := range n.shards {
		sh := &n.shards[w]
		for u := sh.lo; u < sh.hi; u++ {
			if n.ctxs[u].halted {
				rep.halts++
			} else {
				sh.live = append(sh.live, u)
			}
		}
	}

	halted := 0
	for {
		// Close the round: deliver its messages and settle its global
		// report — the local report on loopback, the fold of every peer's
		// frame header in cluster mode. Every decision below reads only the
		// settled report, so all cluster peers take it in the same round.
		// An erring peer still exchanges first: the others wait on its
		// frame, which carries the error to them.
		g, err := n.transport.deliver(n, rep)
		if err != nil {
			return n.finalize(), err
		}
		n.mergeDeliver()
		if g.err != nil {
			return n.finalize(), g.err
		}
		if g.abort != "" {
			return n.finalize(), fmt.Errorf("congest: cluster aborted in round %d: %s", n.round, g.abort)
		}
		halted += g.halts
		if n.round > 0 && n.cfg.OnRound != nil {
			if n.cfg.OnRound(n.round) {
				return n.finalize(), nil
			}
		} else if halted < nn && g.stepped == 0 && g.sent == 0 && g.minWake != noWake && n.cfg.Topology == nil {
			// Fast-forward: when nothing ran and nothing is in flight, every
			// live node is asleep — jump straight to the earliest wake-up
			// instead of executing empty rounds. Dynamic networks never
			// fast-forward: the provider must observe every round.
			target := int(g.minWake)
			if target > n.cfg.MaxRounds {
				target = n.cfg.MaxRounds + 1
			}
			if target-1 > n.round {
				n.stats.SkippedRounds += int64(target - 1 - n.round)
				n.round = target - 1
			}
		}
		if halted >= nn {
			break
		}
		n.round++
		if n.round > n.cfg.MaxRounds {
			n.round--
			return n.finalize(), fmt.Errorf("%w after %d rounds (%d/%d nodes halted)", ErrRoundLimit, n.cfg.MaxRounds, halted, nn)
		}
		if n.cfg.Topology != nil {
			// Round-r topology: applied while every worker is quiescent,
			// frozen for the whole round.
			n.cfg.Topology.ApplyRound(n.round, &n.topo)
		}
		for i := range n.shards {
			n.shards[i].arena.flip()
		}
		n.runPhase(phaseStep)
		rep = n.mergeStep()
	}
	st := n.finalize()
	st.HaltedAll = true
	return st, nil
}
