package congest

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/congest/frame"
)

const (
	phaseStep int8 = iota
	phaseDeliver

	// maxShards bounds the W×W mailbox matrix; beyond this, extra workers
	// stop paying for themselves anyway.
	maxShards = 256
	// parallelMin is the owned range below which a run uses one shard and
	// no pool: no round of so few nodes can repay a hand-off. Results do not
	// depend on the shard count.
	parallelMin = 64
	// inlineWork is the phase work (nodes stepped plus messages moved)
	// below which a pooled run executes the phase on the calling goroutine
	// alone. A hand-off wakes W−1 parked pool goroutines and waits for
	// them. BenchmarkPhaseHandoff measured 3.1–3.6 µs for that against
	// 39–43 ns per unit of work on a 2-vCPU VM, so two workers break even
	// near 2·3.3 µs / 41 ns ≈ 160 units.
	inlineWork = 160

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

	// due and queue are the shard's wake calendar (calendar.go): the nodes
	// to step in the next step phase, and the timed wake-ups still ahead.
	due   dueSet
	queue wakeQueue

	// live counts the shard's non-halted nodes, dormant ones included;
	// dormant counts the nodes of a dormant Run not yet activated.
	live, dormant int64

	// out[s] buffers this shard's messages destined to shard s, in send
	// order. Truncated (never freed) after each deliver phase.
	out [][]pend

	// wireOut[p] buffers this shard's records destined to cluster peer p, in
	// send order (nil outside cluster mode). Truncated (never freed) when
	// the transport merges them into the per-peer frames.
	wireOut [][]frame.Record

	// inboxes and rngs hold the per-node state carved on first use: an
	// inbox of capacity deg(v) on v's first delivery (carveInbox), an RNG on
	// its first Context.Rand. Only the owning shard carves, so both are
	// race-free, and carved state stays with its node across runs.
	inboxes slab[Message]
	rngs    slab[nodeRNG]

	// page is the node page of the node being stepped or initialized: its
	// sends charge their bandwidth there (Context.deposit).
	page *nodePage

	// Per-phase accumulators, merged and reset by the control loop.
	steps        int64
	skips        int64
	wakes        int64
	halts        int
	msgs         int64
	bits         int64
	drops        int64
	stepGrows    int64
	deliverGrows int64
	maxEdgeBits  int
	minWake      int32
	err          error
}

// slabMin is the smallest backing array a slab allocates, in elements:
// 40 KB of inboxes, 56 KB of RNGs. Arrays this large are allocated as
// objects of their own; smaller ones would leave partly used spans of
// several size classes behind in every process that runs jobs.
const slabMin = 1024

// slab hands out per-node runs of T cut from shared backing arrays, so a
// run pays for the nodes that use the state, one allocation per array
// rather than one per node.
type slab[T any] struct {
	free        []T // uncarved tail of the current backing array
	left, given int // elements the uncarved owned nodes may still take; elements carved
}

// carve cuts k elements for one node. A new backing array holds half what
// the slab has given (at least slabMin and k), so a run that reaches part
// of the graph leaves at most a third of its arrays unused, but never more
// than left, so when every owned node takes its share the arrays add up to
// about one up-front allocation of the owned range.
func (s *slab[T]) carve(k int) []T {
	if len(s.free) < k {
		s.free = make([]T, min(s.left, max(k, slabMin, s.given/2)))
	}
	out := s.free[:k:k]
	s.free, s.left, s.given = s.free[k:], s.left-k, s.given+k
	return out
}

// wakeDormant activates, on its first message of the Run, a node that was
// not initialized at round 0: a dormant one (see Dormancy). Until its
// Process exists it sleeps as its Init would have made it, or it is halted
// when the dormant nodes already halted at Network.dormantHalt. It reports
// false in an eager Run, where a stale context belongs to a node whose Init
// never ran because an earlier Init failed.
func (sh *shard) wakeDormant(c *Context, u int32) bool {
	net := sh.net
	if net.newProc == nil {
		return false
	}
	sh.activate(c, u)
	c.sleep = noWake
	if h := net.dormantHalt; h > 0 {
		if int32(net.round) >= h {
			c.halted = true // it halted with the other dormant nodes
			return true
		}
		c.sleep, c.haltAtWake = h, true
	}
	sh.dormant--
	return true
}

// activate rewinds a context for this Run. Carved inboxes and RNGs stay
// with their node: the inbox keeps its warm capacity, the RNG is reseeded
// by its first Rand of the run.
func (sh *shard) activate(c *Context, u int32) {
	*c = Context{sh: sh, id: u, inbox: c.inbox[:0], rng: c.rng, run: sh.net.runNo}
}

// schedule files a node after its Init or Step: halted, due next round, or
// asleep until a timed wake-up. A wake-up past MaxRounds can never fire
// (the run ends first), so it gets no queue entry: such a node, like a
// dormant one, waits for mail only.
func (sh *shard) schedule(c *Context, round int32) {
	switch {
	case c.halted:
		sh.halts++
		sh.live--
	case c.sleep <= round:
		sh.due.add(c.id - sh.lo)
	case int(c.sleep) <= sh.net.cfg.MaxRounds && c.queued != c.sleep:
		sh.queue.push(mkWake(c.sleep, c.id))
		c.queued = c.sleep
	}
}

// popWakes moves this round's timed wake-ups into the due set, and halts
// the nodes whose SleepThenHalt ends now with no mail to read. Stale
// entries — of nodes stepped early that slept elsewhere, or halted — are
// dropped.
func (sh *shard) popWakes(round int32) {
	for len(sh.queue) > 0 && sh.queue.top().round() <= round {
		w := sh.queue.top()
		sh.queue.pop()
		c := sh.net.node(w.id())
		if c.queued == w.round() {
			c.queued = 0
		}
		if c.halted || c.sleep != w.round() {
			continue
		}
		i := c.id - sh.lo
		if c.haltAtWake && !sh.due.has(i) {
			c.halted = true
			sh.halts++
			sh.live--
			continue
		}
		sh.due.add(i)
	}
}

// nextWake returns the earliest round at which a node of the shard wakes
// on its own: the first live queue entry, the dormant halt, or — when live
// nodes remain that only mail can wake — MaxRounds+1, past the end of the
// run. noWake means the shard has no live node.
func (sh *shard) nextWake(round int32) int32 {
	if sh.live == 0 {
		return noWake
	}
	next := int32(min(sh.net.cfg.MaxRounds+1, int(noWake)-1))
	if sh.dormant > 0 && sh.net.dormantHalt > round {
		next = min(next, sh.net.dormantHalt)
	}
	for len(sh.queue) > 0 {
		w := sh.queue.top()
		c := sh.net.node(w.id())
		if !c.halted && c.sleep == w.round() {
			return min(next, w.round())
		}
		sh.queue.pop()
		if c.queued == w.round() {
			c.queued = 0
		}
	}
	return next
}

// runStep steps the shard's due nodes in ascending id order. Dormant
// nodes are created and initialized on their first step; dormant nodes
// still waiting halt together at Network.dormantHalt.
func (sh *shard) runStep() {
	net := sh.net
	round := int32(net.round)
	if sh.dormant > 0 && round == net.dormantHalt {
		sh.halts += int(sh.dormant)
		sh.live -= sh.dormant
		sh.dormant = 0
	}
	sh.popWakes(round)
	live, steps := sh.live, sh.steps
	d := &sh.due
	for j := range d.sum {
		s := d.sum[j]
		d.sum[j] = 0
		for ; s != 0; s &= s - 1 {
			wi := j<<6 | bits.TrailingZeros64(s)
			x := d.words[wi]
			d.words[wi] = 0
			for ; x != 0; x &= x - 1 {
				u := sh.lo + int32(wi<<6|bits.TrailingZeros64(x))
				sh.page = net.pages[u>>pageShift].Load()
				c := &sh.page.ctx[u&pageMask]
				if c.proc == nil {
					c.proc = net.newProc(int(c.id))
					c.proc.Init(c)
				}
				c.sleep, c.haltAtWake = 0, false
				c.proc.Step(c)
				sh.steps++
				c.inbox = c.inbox[:0]
				if !c.halted && c.sleep <= round {
					d.add(c.id - sh.lo) // awake: due next round
				} else {
					sh.schedule(c, round)
				}
			}
		}
	}
	sh.skips += live - (sh.steps - steps)
	sh.minWake = sh.nextWake(round)
}

// run executes one phase of this shard.
func (sh *shard) run(ph int8) {
	switch {
	case ph == phaseStep:
		sh.runStep()
	case sh.net.cfg.Cluster != nil:
		sh.runDeliverWire()
	default:
		sh.drainLocal()
	}
}

// workerPool keeps one goroutine for each shard but the first alive for
// the whole run; the calling goroutine runs shard 0 itself. Phases are
// broadcast over per-worker channels, so the steady-state round loop
// performs no goroutine spawns.
type workerPool struct {
	start []chan int8 // start[i] drives shard i+1
	wg    sync.WaitGroup
}

func (n *Network) startPool() {
	p := &workerPool{start: make([]chan int8, len(n.shards)-1)}
	for i := range p.start {
		ch := make(chan int8, 1)
		p.start[i] = ch
		go func(sh *shard) {
			for ph := range ch {
				sh.run(ph)
				p.wg.Done()
			}
		}(&n.shards[i+1])
	}
	n.pool = p
}

func (p *workerPool) stop() {
	for _, ch := range p.start {
		close(ch)
	}
}

// runPhase executes one phase across all shards: on the pool, with the
// caller running shard 0, when the run has one and work reaches
// inlineWork; otherwise shard by shard on the caller. Shard state is
// identical either way, so results never depend on the execution mode.
func (n *Network) runPhase(ph int8, work int64) {
	if n.pool == nil || work < inlineWork {
		n.inlinePhases++
		for i := range n.shards {
			n.shards[i].run(ph)
		}
		return
	}
	n.pooledPhases++
	n.pool.wg.Add(len(n.pool.start))
	for _, ch := range n.pool.start {
		ch <- ph
	}
	// A goroutine woken by a channel send lands in this processor's
	// run-next slot, which an idle processor steals only after a delay.
	// Yielding starts it here at once; the caller resumes elsewhere.
	runtime.Gosched()
	n.shards[0].run(ph)
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
		// Bounces sit in the outboxes but traverse no edge.
		rep.sent -= sh.drops
		for s := range sh.out {
			rep.sent += int64(len(sh.out[s]))
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

// Dormancy declares that a Run's nodes start dormant, except Sources. A
// dormant node's Init would only sleep — until HaltRound by SleepThenHalt
// when HaltRound > 0, until its first message otherwise — so the engine
// skips it: the node's Process is created and initialized when its first
// message arrives, right before its first Step, and nodes still dormant at
// HaltRound halt together without ever being touched. Results and Stats are
// those of the same Run with every Init called at round 0, where dormant
// nodes count as live sleepers.
//
// A dormant node's newProc and Init therefore run in the round of its first
// message, on the shard worker that steps it: with Workers > 1 they run
// concurrently with other nodes' newProc, Init and Step calls, so newProc
// must be safe for concurrent calls (as a Pages.At on distinct ids is).
type Dormancy struct {
	Sources   []int
	HaltRound int
}

// Run executes the simulation. newProc is called once per node id, in
// ascending id order and before round 1, to create its Process; the caller
// typically captures the created processes to read their outputs
// afterwards. Run returns the statistics and the first error
// (bandwidth violation, illegal send, or round-limit exhaustion), if any.
//
// Run may be called repeatedly on the same network (optionally reseeded via
// SetSeed between calls): every slab from the previous run — node pages,
// mailboxes, carved inboxes and RNGs — is reused, and a context is reset
// when its node is first touched in the new run, so repeated runs amortize
// network construction. The returned Stats are a private copy, unaffected
// by later runs. Concurrent Runs on one network are not allowed.
func (n *Network) Run(newProc func(id int) Process) (*Stats, error) {
	return n.run(nil, newProc)
}

// RunDormant is Run for a protocol whose non-source nodes start dormant
// (see Dormancy): newProc is called only for the sources and for the nodes
// a message reaches, so the Run costs the vertices it touches. A non-source
// node's newProc and Init run in the round of its first message and may run
// concurrently with each other; newProc must be safe for concurrent calls.
func (n *Network) RunDormant(d Dormancy, newProc func(id int) Process) (*Stats, error) {
	return n.run(&d, newProc)
}

func (n *Network) run(dorm *Dormancy, newProc func(id int) Process) (*Stats, error) {
	nn := n.g.N()
	// Only owned vertices are initialized, stepped and delivered to; shards
	// partition the owned range.
	lo, hi := int(n.lo), int(n.hi)
	local := hi - lo
	if n.shards == nil {
		// First run: make the shards. Contexts, inboxes and RNGs are not
		// allocated here: pages and slabs follow the nodes a run reaches.
		nw := min(n.cfg.Workers, local, maxShards)
		if nw < 1 || local < parallelMin {
			nw = 1
		}
		n.shards = make([]shard, nw)
		if uint64(local)*uint64(nw) <= 1<<32 {
			n.shardMul = ^uint64(0)/uint64(local) + 1
		}
		for w := range n.shards {
			slo, shi := lo+w*local/nw, lo+(w+1)*local/nw
			sh := &n.shards[w]
			sh.net = n
			sh.idx = int32(w)
			sh.lo, sh.hi = int32(slo), int32(shi)
			sh.out = make([][]pend, nw)
			sh.due = newDueSet(shi - slo)
			sh.inboxes.left = int(n.off[shi] - n.off[slo])
			sh.rngs.left = shi - slo
			if cl := n.cfg.Cluster; cl != nil {
				sh.wireOut = make([][]frame.Record, cl.Peers)
			}
		}
		if cl := n.cfg.Cluster; cl != nil {
			n.wireOut = make([][]frame.Record, cl.Peers)
		}
	}
	n.resetRunState()
	n.dormantHalt = 0
	if dorm != nil {
		n.newProc = newProc
		defer func() { n.newProc = nil }()
		n.dormantHalt = int32(min(dorm.HaltRound, int(noWake)-1))
		for w := range n.shards {
			sh := &n.shards[w]
			sh.dormant = sh.live
		}
	}
	if n.cfg.Topology != nil {
		// Rewind the activity overlay to the all-active superset and let the
		// provider establish the round-0 edge set before any Init runs.
		n.resetTopology()
		n.cfg.Topology.Start(&n.topo)
	}
	if len(n.shards) > 1 {
		n.startPool()
		defer func() {
			n.pool.stop()
			n.pool = nil
		}()
	}

	// Round 0: Init every owned node, or the owned sources of a dormant
	// run, in ascending id order (sequential: Init is cheap and often
	// empty). The Init round then closes like every other round.
	n.round = 0
	initOne := func(u int) bool {
		sh := &n.shards[n.shardOf(int32(u))]
		c := n.node(int32(u))
		sh.page = n.pages[u>>pageShift].Load()
		sh.activate(c, int32(u))
		c.proc = newProc(u)
		c.proc.Init(c)
		sh.schedule(c, 0)
		return sh.err == nil
	}
	if dorm == nil {
		for u := lo; u < hi && initOne(u); u++ {
		}
	} else {
		src := slices.Clone(dorm.Sources)
		slices.Sort(src)
		for i, u := range src {
			if u < lo || u >= hi || (i > 0 && u == src[i-1]) {
				continue
			}
			n.shards[n.shardOf(int32(u))].dormant--
			if !initOne(u) {
				break
			}
		}
	}
	rep := n.mergeStep()

	halted := 0
	// stepWork predicts the next step phase's work from the last report;
	// round 1 may step every initialized node.
	stepWork := int64(local)
	if dorm != nil {
		stepWork = int64(len(dorm.Sources))
	}
	for {
		// Close the round: deliver its messages and settle its global
		// report — the local report on loopback, the fold of every peer's
		// frame header in cluster mode. Every decision below reads only the
		// settled report, so all cluster peers take it in the same round.
		// An erring peer still exchanges first: the others wait on its
		// frame, which carries the error to them.
		g, err := n.deliver(rep)
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
		n.runPhase(phaseStep, stepWork)
		rep = n.mergeStep()
		stepWork = rep.stepped + rep.sent
	}
	st := n.finalize()
	st.HaltedAll = true
	return st, nil
}
