package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// ---- the wake calendar, checked against a naive per-round scan ----

// scriptFar is a sleep that outlasts every run: only mail ends it.
const scriptFar = 1 << 28

// script is a seeded, history-free schedule: what node id does when it is
// stepped in a round with a given inbox. Everything is a hash of (seed, id,
// round, inbox), so the engine's processes and the model below take the
// same actions without sharing any state.
type script struct {
	seed    uint64
	horizon int  // every node halts when stepped at or after this round
	dormant bool // non-sources start dormant (Init would only sleep)
	halt    int  // the dormant nodes' halt round (0: they wait for mail)
	far     bool // steps may end in a sleep only mail ends
	sources map[int]bool
}

type scriptAction struct {
	sends []scriptSend
	kind  int // 0 awake, 1 Sleep(k), 2 SleepThenHalt(k), 3 Halt, 4 Sleep(scriptFar)
	k     int
}

type scriptSend struct {
	nbr   int // row position
	value int64
}

func scriptHash(xs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, x := range xs {
		h ^= x + 0x9E3779B97F4A7C15 + h<<6 + h>>2
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// act returns the node's action in round r (0 = Init) given its inbox.
func (s *script) act(id, r, deg int, inbox []Message) scriptAction {
	if r == 0 && s.dormant && !s.sources[id] {
		if s.halt > 0 {
			return scriptAction{kind: 2, k: s.halt}
		}
		return scriptAction{kind: 4}
	}
	if r >= s.horizon {
		return scriptAction{kind: 3}
	}
	sum := uint64(len(inbox))
	for _, m := range inbox {
		sum = scriptHash(sum, uint64(m.From), uint64(m.Value))
	}
	h := scriptHash(s.seed, uint64(id), uint64(r), sum)
	var a scriptAction
	for j := 0; j < int(h%3); j++ {
		a.sends = append(a.sends, scriptSend{nbr: int((h >> (8 + 4*j)) % uint64(deg)), value: int64(h>>20)%1000 + int64(j)})
	}
	switch c := (h >> 40) % 16; {
	case c < 5:
		a.kind = 0
	case c < 9:
		a.kind, a.k = 1, 1+int(h>>50)%5
	case c < 12:
		a.kind, a.k = 2, 1+int(h>>50)%5
	case c < 13:
		a.kind = 3
	case s.far:
		a.kind = 4
	default:
		a.kind, a.k = 2, s.horizon-r+1+int(h>>50)%3
	}
	return a
}

// scriptStep is one Step of a node as it saw it.
type scriptStep struct {
	Round int
	Inbox []Message
}

// scriptProc runs a script on the engine and logs its steps.
type scriptProc struct {
	s     *script
	id    int
	log   []scriptStep
	order *[]int // Workers 1 only: the global stepping order
}

func (p *scriptProc) Init(ctx *Context) { p.apply(ctx, p.s.act(p.id, 0, ctx.Degree(), nil)) }

func (p *scriptProc) Step(ctx *Context) {
	in := append([]Message(nil), ctx.Inbox()...)
	p.log = append(p.log, scriptStep{ctx.Round(), in})
	if p.order != nil {
		*p.order = append(*p.order, p.id)
	}
	p.apply(ctx, p.s.act(p.id, ctx.Round(), ctx.Degree(), in))
}

func (p *scriptProc) apply(ctx *Context, a scriptAction) {
	for _, s := range a.sends {
		ctx.SendNbr(s.nbr, Message{Kind: 9, Value: s.value, Bits: 16})
	}
	switch a.kind {
	case 1:
		ctx.Sleep(a.k)
	case 2:
		ctx.SleepThenHalt(a.k)
	case 3:
		ctx.Halt()
	case 4:
		ctx.Sleep(scriptFar)
	}
}

// modelResult is what the model and the engine are compared on.
type modelResult struct {
	logs   [][]scriptStep
	rounds map[int][]int // ids stepped in each round with a step, ascending
	stats  Stats
	err    bool
}

// modelRun simulates the engine's rules with a scan over every node in
// every round: a node is stepped when it has mail or its sleep ran out; a
// SleepThenHalt that runs out with an empty inbox halts the node before the
// round's steps; SleepSkips counts the live nodes not stepped in each
// executed round; when a round steps nothing and sends nothing, the run
// jumps to the earliest wake-up, capped at MaxRounds+1.
func modelRun(g *graph.Graph, s *script, maxRounds int) modelResult {
	n := g.N()
	type node struct {
		halted, haltAtWake bool
		sleep              int
		inbox              []Message
	}
	nodes := make([]node, n)
	res := modelResult{logs: make([][]scriptStep, n), rounds: map[int][]int{}}
	st := &res.stats
	type out struct {
		to  int
		msg Message
	}
	var mail []out
	apply := func(u, r int, a scriptAction) {
		nd := &nodes[u]
		for i, sd := range a.sends {
			mail = append(mail, out{int(g.Neighbors(u)[sd.nbr]), Message{From: int32(u), Kind: 9, Value: sd.value, Bits: 16}})
			bits := 16
			if i > 0 && a.sends[i-1].nbr == sd.nbr {
				bits = 32 // the step's two sends share an edge
			}
			st.MaxEdgeBits = max(st.MaxEdgeBits, bits)
		}
		switch a.kind {
		case 1:
			nd.sleep = r + a.k
		case 2:
			nd.sleep, nd.haltAtWake = r+a.k, true
		case 3:
			nd.halted = true
		case 4:
			nd.sleep = r + scriptFar
		}
	}
	halted := 0
	deliver := func(r int) {
		for _, m := range mail {
			st.Messages++
			st.Bits += int64(m.msg.Bits)
			nd := &nodes[m.to]
			if nd.halted {
				continue
			}
			if len(nd.inbox) == 0 && nd.sleep > r+1 {
				st.Wakeups++
			}
			m.msg.Round = int32(r + 1)
			nd.inbox = append(nd.inbox, m.msg)
		}
		mail = mail[:0]
	}
	for u := 0; u < n; u++ {
		apply(u, 0, s.act(u, 0, g.Degree(u), nil))
		if nodes[u].halted {
			halted++
		}
	}
	deliver(0)
	if halted == n {
		st.HaltedAll = true
		return res
	}
	for r := 1; ; r++ {
		if r > maxRounds {
			st.Rounds, res.err = maxRounds, true
			return res
		}
		live := 0
		for u := range nodes {
			nd := &nodes[u]
			if !nd.halted && nd.haltAtWake && nd.sleep == r && len(nd.inbox) == 0 {
				nd.halted = true
				halted++
			}
			if !nd.halted {
				live++
			}
		}
		var stepped []int
		for u := range nodes {
			nd := &nodes[u]
			if nd.halted || (len(nd.inbox) == 0 && nd.sleep > r) {
				continue
			}
			in := nd.inbox
			nd.inbox = nil
			nd.sleep, nd.haltAtWake = 0, false
			res.logs[u] = append(res.logs[u], scriptStep{r, in})
			stepped = append(stepped, u)
			apply(u, r, s.act(u, r, g.Degree(u), in))
			if nd.halted {
				halted++
			}
		}
		if len(stepped) > 0 {
			res.rounds[r] = stepped
		}
		st.ActiveSteps += int64(len(stepped))
		st.SleepSkips += int64(live - len(stepped))
		sent := len(mail)
		deliver(r)
		if halted == n {
			st.Rounds, st.HaltedAll = r, true
			return res
		}
		if len(stepped) == 0 && sent == 0 {
			wake := maxRounds + 1
			for u := range nodes {
				if !nodes[u].halted {
					wake = min(wake, nodes[u].sleep)
				}
			}
			if wake-1 > r {
				st.SkippedRounds += int64(wake - 1 - r)
				r = wake - 1
			}
		}
	}
}

// randomGraph is a connected graph: a random spanning tree plus extra
// random edges.
func randomGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(rng.Intn(v), v)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// engineRun runs a script on the engine (or on a 3-peer loopback cluster
// when peers > 1) and collects the same observations as the model.
func engineRun(t *testing.T, g *graph.Graph, s *script, maxRounds, workers, peers int) modelResult {
	t.Helper()
	n := g.N()
	procs := make([]scriptProc, n)
	var order []int
	newProc := func(id int) Process {
		procs[id] = scriptProc{s: s, id: id}
		if workers == 1 && peers == 1 {
			procs[id].order = &order
		}
		return &procs[id]
	}
	run := func(net *Network) (*Stats, error) {
		if !s.dormant {
			return net.Run(newProc)
		}
		var src []int
		for u := range s.sources {
			src = append(src, u)
		}
		return net.RunDormant(Dormancy{Sources: src, HaltRound: s.halt}, newProc)
	}
	cfg := Config{Workers: workers, MaxRounds: maxRounds}
	var st Stats
	var err error
	if peers == 1 {
		net, nerr := NewNetwork(g, cfg)
		if nerr != nil {
			t.Fatal(nerr)
		}
		var sp *Stats
		sp, err = run(net)
		st = *sp
	} else {
		hub := newMemHub(peers)
		stats := make([]Stats, peers)
		errs := make([]error, peers)
		var wg sync.WaitGroup
		for p := 0; p < peers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				pc := cfg
				pc.Cluster = &ClusterConfig{Peer: p, Peers: peers, Exchange: &memExchanger{hub: hub, self: p}}
				net, nerr := NewNetwork(g, pc)
				if nerr != nil {
					errs[p] = nerr
					return
				}
				sp, rerr := run(net)
				stats[p], errs[p] = *sp, rerr
			}(p)
		}
		wg.Wait()
		st, err = MergeStats(stats), firstErr(errs)
	}
	res := modelResult{logs: make([][]scriptStep, n), rounds: map[int][]int{}, stats: maskExecutionStats(st), err: err != nil}
	for u := range procs {
		res.logs[u] = procs[u].log
		for _, s := range procs[u].log {
			res.rounds[s.Round] = append(res.rounds[s.Round], u)
		}
	}
	if order != nil {
		// Workers 1: one goroutine steps in the engine's real order, which
		// must ascend within every round.
		i := 0
		for r := 1; r <= st.Rounds; r++ {
			ids := res.rounds[r]
			if got := order[i : i+len(ids)]; !slices.Equal(got, ids) {
				t.Errorf("round %d stepped in order %v, want ascending %v", r, got, ids)
			}
			i += len(ids)
		}
	}
	return res
}

// TestWakeCalendarModel compares the engine with the naive model on random
// graphs and random schedules of sends, Sleep, Halt and SleepThenHalt,
// eager and dormant, at Workers 1, 2 and 4 and on a 3-peer loopback
// cluster: every inbox, the nodes stepped in each round, and the liveness
// counters must match.
func TestWakeCalendarModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 24; trial++ {
		n := 64 + rng.Intn(150)
		g := randomGraph(rng, n, n/2+rng.Intn(n))
		s := &script{seed: rng.Uint64(), horizon: 20 + rng.Intn(30), far: trial%2 == 1, sources: map[int]bool{}}
		if trial%3 != 0 {
			s.dormant = true
			for i := 0; i < 1+n/20; i++ {
				s.sources[rng.Intn(n)] = true
			}
			if trial%3 == 1 {
				s.halt = s.horizon + rng.Intn(10)
			}
		}
		const maxRounds = 400
		want := modelRun(g, s, maxRounds)
		for _, cell := range [][2]int{{1, 1}, {2, 1}, {4, 1}, {2, 3}} {
			workers, peers := cell[0], cell[1]
			t.Run(fmt.Sprintf("trial=%d/dormant=%v/halt=%d/far=%v/workers=%d/peers=%d", trial, s.dormant, s.halt, s.far, workers, peers), func(t *testing.T) {
				got := engineRun(t, g, s, maxRounds, workers, peers)
				if got.err != want.err {
					t.Errorf("run error %v, model %v", got.err, want.err)
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("stats\n got %+v\nwant %+v", got.stats, want.stats)
				}
				for r := 1; r <= want.stats.Rounds; r++ {
					if !slices.Equal(got.rounds[r], want.rounds[r]) {
						t.Fatalf("round %d stepped %v, model %v", r, got.rounds[r], want.rounds[r])
					}
				}
				for u := range got.logs {
					if !reflect.DeepEqual(got.logs[u], want.logs[u]) {
						t.Fatalf("node %d steps\n got %+v\nwant %+v", u, got.logs[u], want.logs[u])
					}
				}
			})
		}
	}
}

// hopper is a one-token walk with no termination flood: the holder sends
// the token to a random neighbor, and every node halts at round steps+1 by
// SleepThenHalt — dormant nodes by Dormancy.HaltRound, with no Step.
type hopper struct{ steps int }

func (h *hopper) Init(ctx *Context) {
	if ctx.ID() == 0 {
		h.Step(ctx) // the source sends the token in round 0
		return
	}
	ctx.SleepThenHalt(h.steps + 1)
}
func (h *hopper) Step(ctx *Context) {
	if r := ctx.Round(); r < h.steps {
		ctx.SendNbr(ctx.Rand().Intn(ctx.Degree()), Message{Kind: 1, Bits: 8})
	}
	ctx.SleepThenHalt(h.steps + 1 - ctx.Round())
}

// BenchmarkTokenWalkHop measures what one hop round of a 1024-step token
// walk costs the engine at one worker on a 32×32 and a 316×316 torus. A
// walk has one active vertex per round, so ns/round should not grow with n:
// the calendar steps the holder, and the other vertices stay dormant.
func BenchmarkTokenWalkHop(b *testing.B) {
	const steps = 1024
	for _, side := range []int{32, 316} {
		g := torusGraph(side)
		b.Run(fmt.Sprintf("torus%d", side), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(g, Config{Workers: 1, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				h := &hopper{steps: steps}
				st, err := net.RunDormant(Dormancy{Sources: []int{0}, HaltRound: steps + 1}, func(int) Process { return h })
				if err != nil {
					b.Fatal(err)
				}
				if !st.HaltedAll || st.ActiveSteps != steps {
					b.Fatalf("halted all %t, %d steps, want %d", st.HaltedAll, st.ActiveSteps, steps)
				}
				rounds += int64(st.Rounds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
		})
	}
}

// TestDormantRunTouchesOnlyReached: a dormant walk of 64 hops on a
// 316×316 torus creates a Process only for the vertices the token reached
// and allocates node pages only for them, while the other ~10^5 vertices
// halt together as a count.
func TestDormantRunTouchesOnlyReached(t *testing.T) {
	const steps = 64
	g := torusGraph(316)
	for _, workers := range []int{1, 2, 4} {
		net, err := NewNetwork(g, Config{Workers: workers, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		created := map[int]bool{}
		h := &hopper{steps: steps}
		st, err := net.RunDormant(Dormancy{Sources: []int{0}, HaltRound: steps + 1}, func(id int) Process {
			mu.Lock()
			created[id] = true
			mu.Unlock()
			return h
		})
		if err != nil {
			t.Fatal(err)
		}
		if !st.HaltedAll || st.Rounds != steps+1 || st.ActiveSteps != steps || st.Messages != steps {
			t.Errorf("workers=%d: halted all %t, rounds %d, steps %d, messages %d; want true, %d, %d, %d",
				workers, st.HaltedAll, st.Rounds, st.ActiveSteps, st.Messages, steps+1, steps, steps)
		}
		// Every round but the last has n live nodes and steps one.
		if want := int64(steps) * int64(g.N()-1); st.SleepSkips != want {
			t.Errorf("workers=%d: SleepSkips = %d, want %d", workers, st.SleepSkips, want)
		}
		pages := 0
		for k := range net.pages {
			if net.pages[k].Load() != nil {
				pages++
			}
		}
		if len(created) > steps+1 || pages > len(created) {
			t.Errorf("workers=%d: %d processes created and %d pages touched for a %d-hop walk", workers, len(created), pages, steps)
		}
	}
}

// dormantLate is a source that sends to its neighbor only after the
// dormant nodes halted, then halts itself.
type dormantLate struct{ halt int }

func (p *dormantLate) Init(ctx *Context) { ctx.Sleep(p.halt) }
func (p *dormantLate) Step(ctx *Context) {
	if ctx.Round() == p.halt {
		ctx.SendNbr(0, Message{Kind: 1, Bits: 8})
		return
	}
	ctx.Halt()
}

// TestDormantMailAfterHaltIsDropped: mail that reaches a dormant node after
// Dormancy.HaltRound finds it halted — counted as delivered, never read,
// and its Process is never created.
func TestDormantMailAfterHaltIsDropped(t *testing.T) {
	const halt = 5
	net, err := NewNetwork(pathGraph(3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var created []int
	st, err := net.RunDormant(Dormancy{Sources: []int{0}, HaltRound: halt}, func(id int) Process {
		created = append(created, id)
		return &dormantLate{halt: halt}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(created, []int{0}) {
		t.Errorf("processes created for %v, want only the source", created)
	}
	if !st.HaltedAll || st.Rounds != halt+1 || st.Messages != 1 || st.ActiveSteps != 2 || st.Wakeups != 0 {
		t.Errorf("stats %+v: want all halted in %d rounds, 1 message, 2 steps, no wakeups", *st, halt+1)
	}
}

// TestOwnerArithmetic: shardOf and peerOf invert the shard ranges
// lo + w·local/W and graph.ShardRange, with the reciprocal multiply and
// with the division it falls back to.
func TestOwnerArithmetic(t *testing.T) {
	for _, local := range []int{64, 65, 100, 1000, 4097, 1<<20 + 3} {
		for _, nw := range []int{2, 3, 4, 7, 64, 256} {
			for _, lo := range []int{0, 17} {
				net := &Network{lo: int32(lo), hi: int32(lo + local), shards: make([]shard, nw)}
				check := func(u, want int) {
					net.shardMul = ^uint64(0)/uint64(local) + 1
					got := net.shardOf(int32(u))
					net.shardMul = 0
					if div := net.shardOf(int32(u)); got != want || div != want {
						t.Fatalf("local=%d W=%d lo=%d: vertex %d in shard %d (multiply) / %d (divide), want %d", local, nw, lo, u, got, div, want)
					}
				}
				for w := 0; w < nw; w++ {
					slo, shi := lo+w*local/nw, lo+(w+1)*local/nw
					for _, u := range []int{slo, slo + 1, (slo + shi) / 2, shi - 2, shi - 1} {
						if u >= slo && u < shi {
							check(u, w)
						}
					}
				}
			}
		}
	}
	for _, n := range []int{3, 10, 144, 1000} {
		for peers := 2; peers <= min(n, 7); peers++ {
			net := &Network{g: pathGraph(n), cfg: Config{Cluster: &ClusterConfig{Peers: peers}}}
			for p := 0; p < peers; p++ {
				plo, phi := graph.ShardRange(n, p, peers)
				for u := plo; u < phi; u++ {
					if got := net.peerOf(int32(u)); got != p {
						t.Fatalf("n=%d peers=%d: vertex %d on peer %d, want %d", n, peers, u, got, p)
					}
				}
			}
		}
	}
}
