package congest

import (
	"reflect"
	"runtime"
	"testing"
)

// ---- determinism across worker counts ----

// mixProc is a deliberately messy workload: it broadcasts RNG-derived
// values, sleeps pseudo-randomly, replies to a random subset of senders,
// and halts at staggered rounds — exercising stepping order, sharded
// delivery order, per-node RNG streams, and the sleep/wake path at once.
type mixProc struct {
	id    int
	acc   int64
	trace []int64
}

func (p *mixProc) Init(ctx *Context) {
	ctx.Broadcast(Message{Kind: 1, Value: ctx.Rand().Int63n(1000), Bits: 32})
}

func (p *mixProc) Step(ctx *Context) {
	for _, m := range ctx.Inbox() {
		p.acc = p.acc*1000003 + m.Value + int64(m.From) + int64(m.Round)
		p.trace = append(p.trace, p.acc)
		if m.Value%7 == int64(p.id%7) {
			ctx.Send(int(m.From), Message{Kind: 2, Value: p.acc % 9999, Bits: 32})
		}
	}
	switch {
	case ctx.Round() > 12+p.id%5:
		ctx.Halt()
	case ctx.Rand().Intn(4) == 0:
		ctx.Sleep(1 + ctx.Rand().Intn(3))
	default:
		ctx.Broadcast(Message{Kind: 1, Value: ctx.Rand().Int63n(1000), Bits: 32})
	}
}

// TestDeterminismAcrossWorkerCounts runs the same seeded workload with
// Workers ∈ {1, 2, GOMAXPROCS} and demands identical per-node traces and
// identical engine statistics — the engine's core invariant.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	g := torusGraph(12) // n = 144 ≥ parallelMin: multi-worker runs have several shards
	run := func(workers int) ([]*mixProc, *Stats) {
		net, err := NewNetwork(g, Config{Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*mixProc, g.N())
		stats, err := net.Run(func(id int) Process {
			procs[id] = &mixProc{id: id}
			return procs[id]
		})
		if err != nil {
			t.Fatal(err)
		}
		return procs, stats
	}
	refProcs, refStats := run(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		procs, stats := run(workers)
		for u := range procs {
			if procs[u].acc != refProcs[u].acc {
				t.Fatalf("workers=%d: node %d acc %d, want %d", workers, u, procs[u].acc, refProcs[u].acc)
			}
			if len(procs[u].trace) != len(refProcs[u].trace) {
				t.Fatalf("workers=%d: node %d trace length %d, want %d",
					workers, u, len(procs[u].trace), len(refProcs[u].trace))
			}
			for i := range procs[u].trace {
				if procs[u].trace[i] != refProcs[u].trace[i] {
					t.Fatalf("workers=%d: node %d trace[%d] diverged", workers, u, i)
				}
			}
		}
		// The grow counters describe the execution (number of warming
		// buffers), not the simulation; everything else must be identical.
		a, b := *stats, *refStats
		a.StepGrows, a.DeliverGrows = 0, 0
		b.StepGrows, b.DeliverGrows = 0, 0
		if a != b {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, a, b)
		}
	}
}

// waveProc floods a wave out of node 0: a node joins on its first message,
// broadcasts RNG-derived values for three rounds, then halts. Round work
// rises as the wave front grows and falls as it passes, so a pooled run
// crosses inlineWork in both directions.
type waveProc struct {
	joined int
	trace  []int64
}

func (p *waveProc) Init(ctx *Context) {
	if ctx.ID() == 0 {
		p.joined = 0
		ctx.Broadcast(Message{Kind: 1, Value: ctx.Rand().Int63n(1000), Bits: 32})
		return
	}
	p.joined = -1
	ctx.Sleep(1 << 20)
}

func (p *waveProc) Step(ctx *Context) {
	var acc int64
	for _, m := range ctx.Inbox() {
		acc = acc*1000003 + m.Value + int64(m.From) + int64(m.Round)
	}
	p.trace = append(p.trace, acc)
	if p.joined < 0 {
		p.joined = ctx.Round()
	}
	if ctx.Round()-p.joined >= 3 {
		ctx.Halt()
		return
	}
	ctx.Broadcast(Message{Kind: 1, Value: ctx.Rand().Int63n(1000), Bits: 32})
}

// TestDeterminismAcrossExecutionBranches: the same run must not depend on
// which rounds ran inline on the caller and which on the pool. At two or
// more workers the wave takes both branches; traces and simulation stats
// must equal the single-worker run's.
func TestDeterminismAcrossExecutionBranches(t *testing.T) {
	g := torusGraph(24) // n = 576 ≥ parallelMin
	run := func(workers int) ([]*waveProc, Stats, *Network) {
		net, err := NewNetwork(g, Config{Workers: workers, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*waveProc, g.N())
		st, err := net.Run(func(id int) Process {
			procs[id] = &waveProc{}
			return procs[id]
		})
		if err != nil {
			t.Fatal(err)
		}
		if !st.HaltedAll {
			t.Fatalf("workers=%d: the wave did not reach every node", workers)
		}
		// The grow counters describe buffer warm-up, not the simulation.
		st.StepGrows, st.DeliverGrows = 0, 0
		return procs, *st, net
	}
	refProcs, refStats, _ := run(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0), 4} {
		procs, st, net := run(workers)
		if !reflect.DeepEqual(procs, refProcs) {
			t.Errorf("workers=%d: node traces diverged from the single-worker run", workers)
		}
		if st != refStats {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, st, refStats)
		}
		t.Logf("workers=%d: %d inline, %d pooled phases over %d rounds", workers, net.inlinePhases, net.pooledPhases, st.Rounds)
		if net.inlinePhases == 0 || net.pooledPhases == 0 {
			t.Errorf("workers=%d: %d inline and %d pooled phases, want both branches taken",
				workers, net.inlinePhases, net.pooledPhases)
		}
	}
}

// ---- zero-allocation steady state ----

// floodEcho broadcasts every round until a fixed horizon; a steady,
// message-heavy workload with no allocations of its own.
type floodEcho struct{ horizon int }

func (p *floodEcho) Init(ctx *Context) {}
func (p *floodEcho) Step(ctx *Context) {
	if ctx.Round() >= p.horizon {
		ctx.Halt()
		return
	}
	ctx.Broadcast(Message{Kind: 1, Value: int64(ctx.Round()), Bits: 16})
}

// TestSteadyStateDoesNotAllocatePerMessage compares the allocation count of
// a short and a long run of the same workload: the extra rounds move
// millions of messages and must not add more than a handful of allocations
// (buffer growth settles during warmup).
func TestSteadyStateDoesNotAllocatePerMessage(t *testing.T) {
	g := torusGraph(16) // n = 256, 4-regular: 1024 messages per round
	measure := func(horizon int) (allocs float64, msgs int64) {
		var st *Stats
		allocs = testing.AllocsPerRun(3, func() {
			net, err := NewNetwork(g, Config{Workers: 1, MaxRounds: horizon + 4})
			if err != nil {
				t.Fatal(err)
			}
			st, err = net.Run(func(int) Process { return &floodEcho{horizon: horizon} })
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
		t.Errorf("steady-state rounds allocated: %d extra messages cost %.0f extra allocs", extraMsgs, extraAllocs)
	}
}

// ---- SendNbr ----

type nbrSender struct{ id int }

func (s nbrSender) Init(ctx *Context) {}
func (s nbrSender) Step(ctx *Context) {
	if s.id == 1 && ctx.Round() == 1 {
		for i, v := range ctx.Neighbors() {
			ctx.SendNbr(i, Message{Kind: 1, Value: int64(v), Bits: 16})
		}
	}
	if ctx.Round() >= 2 {
		for _, m := range ctx.Inbox() {
			if m.Value != int64(s.id) {
				panic("SendNbr hit the wrong neighbor")
			}
		}
		ctx.Halt()
	}
}

func TestSendNbrAddressesRowPosition(t *testing.T) {
	net, _ := NewNetwork(pathGraph(3), Config{})
	stats, err := net.Run(func(id int) Process { return nbrSender{id} })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 2 {
		t.Errorf("messages = %d, want 2", stats.Messages)
	}
}

func TestSendNbrOutOfRange(t *testing.T) {
	net, _ := NewNetwork(pathGraph(3), Config{})
	_, err := net.Run(func(id int) Process { return badNbr{} })
	if err == nil {
		t.Fatal("out-of-range SendNbr accepted")
	}
}

type badNbr struct{}

func (badNbr) Init(ctx *Context) {}
func (badNbr) Step(ctx *Context) {
	ctx.SendNbr(99, Message{Kind: 1, Bits: 8})
	ctx.Halt()
}

// ---- sleep fast-forward ----

// deepSleeper sleeps a long stretch, then halts on wake-up.
type deepSleeper struct{ woke int }

func (p *deepSleeper) Init(ctx *Context) {}
func (p *deepSleeper) Step(ctx *Context) {
	if ctx.Round() == 1 {
		ctx.Sleep(500)
		return
	}
	p.woke = ctx.Round()
	ctx.Halt()
}

func TestFastForwardSkipsSleptRounds(t *testing.T) {
	net, _ := NewNetwork(pathGraph(4), Config{MaxRounds: 2000})
	procs := make([]*deepSleeper, 4)
	stats, err := net.Run(func(id int) Process {
		procs[id] = &deepSleeper{}
		return procs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if p.woke != 501 {
			t.Errorf("node %d woke at %d, want 501", i, p.woke)
		}
	}
	if stats.Rounds != 501 {
		t.Errorf("rounds = %d, want 501", stats.Rounds)
	}
	if stats.SkippedRounds < 490 {
		t.Errorf("skipped rounds = %d, want ≈499", stats.SkippedRounds)
	}
	// The whole point: active steps stay O(active), not O(rounds).
	if stats.ActiveSteps > 4*3 {
		t.Errorf("active steps = %d for an all-sleeping network", stats.ActiveSteps)
	}
}

// TestFastForwardRespectsRoundLimit: sleeping past MaxRounds still reports
// the round-limit error with the correct round count.
type eternalSleeper struct{}

func (eternalSleeper) Init(ctx *Context) {}
func (eternalSleeper) Step(ctx *Context) { ctx.Sleep(10_000) }

func TestFastForwardRespectsRoundLimit(t *testing.T) {
	net, _ := NewNetwork(pathGraph(2), Config{MaxRounds: 50})
	stats, err := net.Run(func(int) Process { return eternalSleeper{} })
	if err == nil {
		t.Fatal("expected round-limit error")
	}
	if stats.Rounds != 50 {
		t.Errorf("rounds = %d, want 50", stats.Rounds)
	}
}
