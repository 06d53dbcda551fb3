package congest

import (
	"runtime"
	"testing"
)

// funcProvider adapts two closures to the TopologyProvider interface.
type funcProvider struct {
	start func(t *Topology)
	apply func(round int, t *Topology)
}

func (p *funcProvider) Start(t *Topology) {
	if p.start != nil {
		p.start(t)
	}
}

func (p *funcProvider) ApplyRound(round int, t *Topology) {
	if p.apply != nil {
		p.apply(round, t)
	}
}

// degreeProbe records its active degree and per-neighbor activity per round.
type degreeProbe struct {
	horizon int
	degs    []int
	act     [][]bool
}

func (p *degreeProbe) Init(ctx *Context) {}
func (p *degreeProbe) Step(ctx *Context) {
	p.degs = append(p.degs, ctx.ActiveDegree())
	row := make([]bool, ctx.Degree())
	for i := range row {
		row[i] = ctx.EdgeActive(i)
	}
	p.act = append(p.act, row)
	if ctx.Round() >= p.horizon {
		ctx.Halt()
	}
}

// TestTopologyView exercises SetEdge/EdgeOn/ActiveDegree semantics and the
// per-round visibility of the overlay from inside processes.
func TestTopologyView(t *testing.T) {
	g := pathGraph(3) // 0–1–2
	prov := &funcProvider{
		apply: func(round int, tp *Topology) {
			switch round {
			case 2:
				if !tp.SetEdge(0, 1, false) {
					t.Error("round 2: deactivating {0,1} reported no change")
				}
				if tp.SetEdge(0, 1, false) {
					t.Error("round 2: repeated deactivation reported a change")
				}
				if tp.EdgeOn(0, 1) || !tp.EdgeOn(1, 2) {
					t.Error("round 2: EdgeOn disagrees with SetEdge")
				}
				if tp.EdgeOn(0, 2) || tp.EdgeOn(2, 3) || tp.EdgeOn(-1, 0) {
					t.Error("round 2: EdgeOn reports a pair outside the superset")
				}
				if tp.ActiveDegree(1) != 1 || tp.ActiveEdges() != 1 {
					t.Errorf("round 2: ActiveDegree(1)=%d ActiveEdges=%d, want 1, 1", tp.ActiveDegree(1), tp.ActiveEdges())
				}
			case 4:
				tp.SetEdge(1, 0, true) // order of endpoints must not matter
			}
		},
	}
	net, err := NewNetwork(g, Config{Workers: 1, Topology: prov})
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]*degreeProbe, g.N())
	stats, err := net.Run(func(id int) Process {
		probes[id] = &degreeProbe{horizon: 5}
		return probes[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's active degree per round 1..5: 2, 1, 1, 2, 2.
	want := []int{2, 1, 1, 2, 2}
	for i, w := range want {
		if probes[1].degs[i] != w {
			t.Errorf("node 1 round %d: ActiveDegree=%d, want %d", i+1, probes[1].degs[i], w)
		}
	}
	if probes[0].act[1][0] { // round 2: node 0's only edge is down
		t.Error("node 0 round 2: EdgeActive(0) true, want false")
	}
	if stats.TopologyChanges != 2 {
		t.Errorf("TopologyChanges=%d, want 2", stats.TopologyChanges)
	}
}

// bouncer: node 0 sends one volatile message to node 1 in every round up to
// sendUntil, and everyone records what arrives (halting two rounds later so
// no delivery outlives the run).
type bouncer struct {
	id        int
	sendUntil int
	volatile  bool
	got       []Message
	delivers  int
	bounces   int
}

func (p *bouncer) Init(ctx *Context) {}
func (p *bouncer) Step(ctx *Context) {
	for _, m := range ctx.Inbox() {
		p.got = append(p.got, m)
		if m.Bounced() {
			p.bounces++
		} else {
			p.delivers++
		}
	}
	if p.id == 0 && ctx.Round() <= p.sendUntil {
		var flags uint8
		if p.volatile {
			flags = FlagVolatile
		}
		ctx.Send(1, Message{Kind: 7, Flags: flags, Value: int64(ctx.Round()), Bits: 16})
	}
	if ctx.Round() >= p.sendUntil+2 {
		ctx.Halt()
	}
}

// TestVolatileBounce checks the drop-and-bounce path: a volatile send over
// an edge that is inactive in the send round comes back to the sender next
// round with FlagBounced set and From naming the unreachable neighbor,
// while sends over active edges are delivered normally.
func TestVolatileBounce(t *testing.T) {
	g := pathGraph(3)
	prov := &funcProvider{
		apply: func(round int, tp *Topology) {
			tp.SetEdge(0, 1, round < 3 || round > 4) // down in rounds 3 and 4
		},
	}
	net, err := NewNetwork(g, Config{Workers: 1, Topology: prov})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*bouncer, g.N())
	stats, err := net.Run(func(id int) Process {
		procs[id] = &bouncer{id: id, sendUntil: 7, volatile: true}
		return procs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs[0].bounces != 2 {
		t.Errorf("sender bounces=%d, want 2 (rounds 3 and 4)", procs[0].bounces)
	}
	if procs[1].delivers != 5 {
		t.Errorf("receiver deliveries=%d, want 5", procs[1].delivers)
	}
	for _, m := range procs[0].got {
		if !m.Bounced() {
			t.Fatalf("sender received a non-bounce: %+v", m)
		}
		if m.From != 1 {
			t.Errorf("bounce From=%d, want the unreachable neighbor 1", m.From)
		}
		if m.Kind != 7 || m.Flags&FlagVolatile == 0 {
			t.Errorf("bounce lost original fields: %+v", m)
		}
	}
	if stats.DroppedSends != 2 {
		t.Errorf("DroppedSends=%d, want 2", stats.DroppedSends)
	}
}

// TestNonVolatileIgnoresChurn: control-plane (non-volatile) messages ride
// the superset even while the edge is down.
func TestNonVolatileIgnoresChurn(t *testing.T) {
	g := pathGraph(2)
	prov := &funcProvider{
		start: func(tp *Topology) { tp.SetEdge(0, 1, false) },
		apply: func(round int, tp *Topology) {},
	}
	net, err := NewNetwork(g, Config{Workers: 1, Topology: prov})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*bouncer, g.N())
	_, err = net.Run(func(id int) Process {
		procs[id] = &bouncer{id: id, sendUntil: 3, volatile: true}
		return procs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs[0].bounces != 3 {
		t.Errorf("volatile sends over the permanently-down edge: bounces=%d, want 3", procs[0].bounces)
	}
	// Re-run with non-volatile sends on the same topology: the control
	// plane rides the superset regardless of edge state.
	net2, err := NewNetwork(g, Config{Workers: 1, Topology: prov})
	if err != nil {
		t.Fatal(err)
	}
	procs2 := make([]*bouncer, g.N())
	_, err = net2.Run(func(id int) Process {
		procs2[id] = &bouncer{id: id, sendUntil: 3, volatile: false}
		return procs2[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs2[1].delivers != 3 {
		t.Errorf("non-volatile deliveries=%d, want 3", procs2[1].delivers)
	}
	if procs2[0].bounces != 0 {
		t.Errorf("non-volatile bounces=%d, want 0", procs2[0].bounces)
	}
}

// churnProvider deterministically toggles a pseudo-random batch of edges
// every round (splitmix64 over (seed, round)), exercising the overlay under
// sustained churn.
type churnProvider struct {
	seed uint64
	rate int // toggle every rate-th edge candidate
}

func (p *churnProvider) Start(t *Topology) {}
func (p *churnProvider) ApplyRound(round int, t *Topology) {
	g := t.net.g
	x := p.seed + uint64(round)*0x9E3779B97F4A7C15
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) < u {
				continue
			}
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x%uint64(p.rate) == 0 {
				t.SetEdge(u, int(v), !t.EdgeOn(u, int(v)))
			}
		}
	}
}

// volatileMix is mixProc with volatile broadcasts: bounces feed back into
// the trace, so worker-count invariance covers the whole dynamic path.
type volatileMix struct {
	id    int
	acc   int64
	trace []int64
}

func (p *volatileMix) Init(ctx *Context) {}
func (p *volatileMix) Step(ctx *Context) {
	for _, m := range ctx.Inbox() {
		v := m.Value
		if m.Bounced() {
			v = -v
		}
		p.acc = p.acc*1000003 + v + int64(m.From) + int64(m.Round)
		p.trace = append(p.trace, p.acc)
	}
	switch {
	case ctx.Round() > 14+p.id%5:
		ctx.Halt()
	default:
		for i := range ctx.Neighbors() {
			ctx.SendNbr(i, Message{Kind: 1, Flags: FlagVolatile, Value: ctx.Rand().Int63n(1000), Bits: 32})
		}
	}
}

// TestDynamicDeterminismAcrossWorkerCounts is the engine's core invariant
// extended to dynamic networks: churn, drops and bounces are identical for
// every worker count.
func TestDynamicDeterminismAcrossWorkerCounts(t *testing.T) {
	g := torusGraph(12)
	run := func(workers int) ([]*volatileMix, *Stats) {
		prov := &churnProvider{seed: 99, rate: 3}
		net, err := NewNetwork(g, Config{Workers: workers, Seed: 42, Topology: prov})
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*volatileMix, g.N())
		stats, err := net.Run(func(id int) Process {
			procs[id] = &volatileMix{id: id}
			return procs[id]
		})
		if err != nil {
			t.Fatal(err)
		}
		return procs, stats
	}
	refProcs, refStats := run(1)
	if refStats.DroppedSends == 0 || refStats.TopologyChanges == 0 {
		t.Fatalf("churn workload inert: drops=%d toggles=%d", refStats.DroppedSends, refStats.TopologyChanges)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		procs, stats := run(workers)
		for u := range procs {
			if procs[u].acc != refProcs[u].acc || len(procs[u].trace) != len(refProcs[u].trace) {
				t.Fatalf("workers=%d: node %d diverged", workers, u)
			}
		}
		a, b := *stats, *refStats
		a.StepGrows, a.DeliverGrows = 0, 0
		b.StepGrows, b.DeliverGrows = 0, 0
		if a != b {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, a, b)
		}
	}
}

// TestDynamicRunReuse: a reused network reproduces a dynamic run bit for
// bit — the overlay and provider state rewind exactly.
func TestDynamicRunReuse(t *testing.T) {
	g := torusGraph(8)
	prov := &churnProvider{seed: 7, rate: 4}
	net, err := NewNetwork(g, Config{Workers: 2, Seed: 5, Topology: prov})
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]int64, Stats) {
		procs := make([]*volatileMix, g.N())
		stats, err := net.Run(func(id int) Process {
			procs[id] = &volatileMix{id: id}
			return procs[id]
		})
		if err != nil {
			t.Fatal(err)
		}
		accs := make([]int64, g.N())
		for u := range procs {
			accs[u] = procs[u].acc
		}
		st := *stats
		st.StepGrows, st.DeliverGrows = 0, 0
		return accs, st
	}
	accs1, st1 := run()
	accs2, st2 := run()
	for u := range accs1 {
		if accs1[u] != accs2[u] {
			t.Fatalf("node %d: run 2 acc %d, want %d", u, accs2[u], accs1[u])
		}
	}
	if st1 != st2 {
		t.Errorf("run 2 stats %+v, want %+v", st2, st1)
	}
}

// TestDynamicSteadyStateAllocs: sustained churn plus volatile traffic adds
// no per-round allocations once buffers are warm.
func TestDynamicSteadyStateAllocs(t *testing.T) {
	g := torusGraph(16)
	measure := func(horizon int) (allocs float64, msgs int64) {
		var st *Stats
		allocs = testing.AllocsPerRun(3, func() {
			prov := &churnProvider{seed: 3, rate: 5}
			net, err := NewNetwork(g, Config{Workers: 1, MaxRounds: horizon + 4, Topology: prov})
			if err != nil {
				t.Fatal(err)
			}
			st, err = net.Run(func(int) Process { return &churnFlood{horizon: horizon} })
			if err != nil {
				t.Fatal(err)
			}
		})
		return allocs, st.Messages
	}
	shortAllocs, shortMsgs := measure(20)
	longAllocs, longMsgs := measure(220)
	extraMsgs := longMsgs - shortMsgs
	extraAllocs := longAllocs - shortAllocs
	if extraMsgs < 100_000 {
		t.Fatalf("workload too small to be meaningful: %d extra messages", extraMsgs)
	}
	if extraAllocs > 16 {
		t.Errorf("dynamic steady-state rounds allocated: %d extra messages cost %.0f extra allocs", extraMsgs, extraAllocs)
	}
}

// churnFlood broadcasts volatile messages over active edges every round.
type churnFlood struct{ horizon int }

func (p *churnFlood) Init(ctx *Context) {}
func (p *churnFlood) Step(ctx *Context) {
	if ctx.Round() >= p.horizon {
		ctx.Halt()
		return
	}
	for i := range ctx.Neighbors() {
		ctx.SendNbr(i, Message{Kind: 1, Flags: FlagVolatile, Value: int64(ctx.Round()), Bits: 16})
	}
}
