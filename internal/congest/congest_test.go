package congest

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func cliqueGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// pingProc: node 0 sends its id along the path; each node forwards; all
// record the round they saw the token and halt.
type pingProc struct {
	id       int
	n        int
	sawRound int
	done     bool
}

func (p *pingProc) Init(ctx *Context) {
	if p.id == 0 {
		ctx.Send(1, Message{Kind: 1, Value: 42, Bits: 16})
		p.sawRound = 0
		ctx.Halt()
	}
}

func (p *pingProc) Step(ctx *Context) {
	for _, m := range ctx.Inbox() {
		if m.Kind == 1 && !p.done {
			p.done = true
			p.sawRound = ctx.Round()
			if p.id+1 < p.n {
				ctx.Send(p.id+1, Message{Kind: 1, Value: m.Value, Bits: 16})
			}
			ctx.Halt()
		}
	}
}

// TestDeliveryTiming: a message sent in round r arrives in round r+1, so a
// token relayed down a path of n nodes reaches node i at round i.
func TestDeliveryTiming(t *testing.T) {
	const n = 10
	g := pathGraph(n)
	net, err := NewNetwork(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*pingProc, n)
	stats, err := net.Run(func(id int) Process {
		procs[id] = &pingProc{id: id, n: n}
		return procs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if procs[i].sawRound != i {
			t.Errorf("node %d saw token at round %d, want %d", i, procs[i].sawRound, i)
		}
	}
	if !stats.HaltedAll {
		t.Error("not all halted")
	}
	if stats.Messages != n-1 {
		t.Errorf("messages = %d, want %d", stats.Messages, n-1)
	}
	if stats.Rounds != n-1 {
		t.Errorf("rounds = %d, want %d", stats.Rounds, n-1)
	}
}

// haltImmediately halts every node in Init.
type haltImmediately struct{}

func (haltImmediately) Init(ctx *Context) { ctx.Halt() }
func (haltImmediately) Step(ctx *Context) {}

func TestImmediateHalt(t *testing.T) {
	net, _ := NewNetwork(cliqueGraph(4), Config{})
	stats, err := net.Run(func(int) Process { return haltImmediately{} })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 {
		t.Errorf("rounds = %d, want 0", stats.Rounds)
	}
}

// neverHalt runs forever; the round limit must fire.
type neverHalt struct{}

func (neverHalt) Init(ctx *Context) {}
func (neverHalt) Step(ctx *Context) {}

func TestRoundLimit(t *testing.T) {
	net, _ := NewNetwork(pathGraph(3), Config{MaxRounds: 17})
	_, err := net.Run(func(int) Process { return neverHalt{} })
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("got %v, want ErrRoundLimit", err)
	}
}

// bandwidthHog sends one oversized message.
type bandwidthHog struct{ id int }

func (b bandwidthHog) Init(ctx *Context) {}
func (b bandwidthHog) Step(ctx *Context) {
	if b.id == 0 {
		ctx.Send(1, Message{Kind: 1, Bits: 1 << 20})
	}
	if ctx.Round() > 2 {
		ctx.Halt()
	}
}

func TestBandwidthEnforcement(t *testing.T) {
	net, _ := NewNetwork(pathGraph(3), Config{})
	_, err := net.Run(func(id int) Process { return bandwidthHog{id} })
	var be *BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want BandwidthError", err)
	}
	if be.From != 0 || be.To != 1 {
		t.Errorf("violation attributed to %d→%d", be.From, be.To)
	}
}

// TestBandwidthAccumulates: many small messages on one edge in one round
// must also trip the limit.
type dribbler struct{ id int }

func (d dribbler) Init(ctx *Context) {}
func (d dribbler) Step(ctx *Context) {
	if d.id == 0 {
		for i := 0; i < 1000; i++ {
			ctx.Send(1, Message{Kind: 1, Bits: 8})
		}
	}
	ctx.Halt()
}

func TestBandwidthAccumulates(t *testing.T) {
	net, _ := NewNetwork(pathGraph(2), Config{BandwidthBits: 64})
	_, err := net.Run(func(id int) Process { return dribbler{id} })
	var be *BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want BandwidthError", err)
	}
}

// idSender sends one message from node 0 to `to` in round 1; every node
// logs what it receives. Send must reject a destination outside [0, N())
// before narrowing it to a vertex id, or 1<<32+1 would reach vertex 1.
type idSender struct {
	id, to int
	got    []Message
}

func (s *idSender) Init(ctx *Context) {}
func (s *idSender) Step(ctx *Context) {
	s.got = append(s.got, ctx.Inbox()...)
	if s.id == 0 && ctx.Round() == 1 {
		ctx.Send(s.to, Message{Kind: 1, Bits: 8})
	}
	if ctx.Round() >= 2 {
		ctx.Halt()
	}
}

func TestNonNeighborSendRejected(t *testing.T) {
	cycle8, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		to   int64
	}{
		{"path non-neighbor", pathGraph(3), 2},
		{"id aliasing neighbor 1 in 32 bits", cycle8, 1<<32 + 1},
		{"negative id", cycle8, -1},
		{"id N", cycle8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			to := int(tc.to)
			if int64(to) != tc.to {
				t.Skip("id does not fit this platform's int")
			}
			net, err := NewNetwork(tc.g, Config{})
			if err != nil {
				t.Fatal(err)
			}
			procs := make([]*idSender, tc.g.N())
			_, err = net.Run(func(id int) Process {
				procs[id] = &idSender{id: id, to: to}
				return procs[id]
			})
			var se *SendError
			if !errors.As(err, &se) || se.To != to || se.Reason != "not a neighbor" {
				t.Fatalf("got %v, want a not-a-neighbor SendError to %d", err, to)
			}
			for _, p := range procs {
				if len(p.got) != 0 {
					t.Errorf("node %d received %+v", p.id, p.got)
				}
			}
		})
	}
}

// zeroBits sends a message with Bits = 0.
type zeroBits struct{ id int }

func (z zeroBits) Init(ctx *Context) {}
func (z zeroBits) Step(ctx *Context) {
	if z.id == 0 {
		ctx.Send(1, Message{Kind: 1})
	}
	ctx.Halt()
}

func TestZeroBitsRejected(t *testing.T) {
	net, _ := NewNetwork(pathGraph(2), Config{})
	_, err := net.Run(func(id int) Process { return zeroBits{id} })
	var se *SendError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want SendError", err)
	}
}

// gossipSum floods a value and sums everything seen; used to check inbox
// determinism across worker counts.
type gossipSum struct {
	id  int
	sum int64
	log []int64
}

func (p *gossipSum) Init(ctx *Context) {
	ctx.Broadcast(Message{Kind: 1, Value: int64(p.id + 1), Bits: 32})
}

func (p *gossipSum) Step(ctx *Context) {
	for _, m := range ctx.Inbox() {
		p.sum = p.sum*31 + m.Value + int64(m.From)
		p.log = append(p.log, p.sum)
	}
	if ctx.Round() < 5 {
		ctx.Broadcast(Message{Kind: 1, Value: p.sum % 1000, Bits: 32})
	} else {
		ctx.Halt()
	}
}

// TestDeterminismAcrossWorkers: identical traces for 1 and many workers.
func TestDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) []int64 {
		net, err := NewNetwork(cliqueGraph(9), Config{Workers: workers, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*gossipSum, 9)
		if _, err := net.Run(func(id int) Process {
			procs[id] = &gossipSum{id: id}
			return procs[id]
		}); err != nil {
			t.Fatal(err)
		}
		var all []int64
		for _, p := range procs {
			all = append(all, p.sum)
		}
		return all
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPerNodeRNGDeterminism: same seed ⇒ same node RNG streams; different
// nodes get different streams.
type rngProbe struct{ vals [3]int64 }

func (p *rngProbe) Init(ctx *Context) {
	for i := range p.vals {
		p.vals[i] = ctx.Rand().Int63()
	}
	ctx.Halt()
}
func (p *rngProbe) Step(ctx *Context) {}

func TestPerNodeRNG(t *testing.T) {
	run := func(seed int64) []*rngProbe {
		net, _ := NewNetwork(pathGraph(4), Config{Seed: seed})
		probes := make([]*rngProbe, 4)
		if _, err := net.Run(func(id int) Process {
			probes[id] = &rngProbe{}
			return probes[id]
		}); err != nil {
			t.Fatal(err)
		}
		return probes
	}
	a, b := run(1), run(1)
	c := run(2)
	for i := range a {
		if a[i].vals != b[i].vals {
			t.Errorf("node %d: same seed, different stream", i)
		}
	}
	if a[0].vals == a[1].vals {
		t.Error("distinct nodes share an RNG stream")
	}
	if a[0].vals == c[0].vals {
		t.Error("different seeds give identical streams")
	}
}

// sleeper exercises Sleep: it sleeps 5 rounds, but a message wakes it.
type sleeper struct {
	id        int
	wokeRound int
}

func (s *sleeper) Init(ctx *Context) {}
func (s *sleeper) Step(ctx *Context) {
	if s.id == 1 {
		if len(ctx.Inbox()) > 0 {
			s.wokeRound = ctx.Round()
			ctx.Halt()
			return
		}
		ctx.Sleep(50)
		return
	}
	// Node 0 pings node 1 at round 3.
	if ctx.Round() == 3 {
		ctx.Send(1, Message{Kind: 1, Bits: 8})
		ctx.Halt()
	}
}

func TestSleepWakesOnMessage(t *testing.T) {
	net, _ := NewNetwork(pathGraph(2), Config{})
	procs := make([]*sleeper, 2)
	_, err := net.Run(func(id int) Process {
		procs[id] = &sleeper{id: id}
		return procs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs[1].wokeRound != 4 {
		t.Errorf("sleeper woke at %d, want 4", procs[1].wokeRound)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := NewNetwork(graph.NewBuilder(0).Build(), Config{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestDefaultBandwidthIsLogN(t *testing.T) {
	for _, k := range []int{10, 14, 20} {
		b := DefaultBandwidth(1 << k)
		if b < BandwidthFactor*k || b > BandwidthFactor*(k+2) {
			t.Errorf("DefaultBandwidth(2^%d) = %d, want ≈ %d·log n", k, b, BandwidthFactor)
		}
	}
	if small := DefaultBandwidth(4); small < 8*BandwidthFactor {
		t.Errorf("small-n floor violated: %d", small)
	}
}
