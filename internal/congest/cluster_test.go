package congest

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/congest/frame"
	"repro/internal/graph"
)

// ---- in-memory cluster fabric ----
//
// The tests below run N peers as goroutines wired through channels: a
// cap-1 channel per directed peer pair carries the per-round frames —
// report plus record batch — the exact contract the TCP mesh in
// internal/cluster implements over the wire. A send blocks only while the
// receiver has not yet taken the previous round's frame, which it takes
// without waiting on any later round, so the fabric cannot deadlock.

type memFrame struct {
	rep  frame.Report
	recs []frame.Record
}

type memHub struct {
	ch   [][]chan memFrame // ch[from][to]
	sent atomic.Int64      // Report.Sent summed over every peer and round
}

func newMemHub(peers int) *memHub {
	h := &memHub{ch: make([][]chan memFrame, peers)}
	for i := range h.ch {
		h.ch[i] = make([]chan memFrame, peers)
		for j := range h.ch[i] {
			h.ch[i][j] = make(chan memFrame, 1)
		}
	}
	return h
}

type memExchanger struct {
	hub  *memHub
	self int
}

func (e *memExchanger) Exchange(round int, rep frame.Report, out [][]frame.Record) ([][]frame.Record, []frame.Report, error) {
	e.hub.sent.Add(rep.Sent)
	for q := range out {
		if q == e.self {
			continue
		}
		e.hub.ch[e.self][q] <- memFrame{rep: rep, recs: append([]frame.Record(nil), out[q]...)}
	}
	in := make([][]frame.Record, len(out))
	reps := make([]frame.Report, len(out))
	for q := range out {
		if q == e.self {
			continue
		}
		f := <-e.hub.ch[q][e.self]
		in[q], reps[q] = f.recs, f.rep
	}
	return in, reps, nil
}

// runClusterPeers executes one cluster run of newProc over g: `peers`
// networks in goroutines, wired through the in-memory fabric. Returns the
// per-peer stats and errors in peer order. It also checks that delivered
// traffic charged at the sender — the Sent of every frame header — sums
// to the receiver-counted Stats.Messages.
func runClusterPeers(t *testing.T, g *graph.Graph, peers, workers int, cfg Config, newProc func(id int) Process) ([]Stats, []error) {
	t.Helper()
	hub := newMemHub(peers)
	stats := make([]Stats, peers)
	errs := make([]error, peers)
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pc := cfg
			pc.Workers = workers
			pc.Cluster = &ClusterConfig{Peer: p, Peers: peers, Exchange: &memExchanger{hub: hub, self: p}}
			net, err := NewNetwork(g, pc)
			if err != nil {
				errs[p] = err
				return
			}
			st, err := net.Run(newProc)
			stats[p] = *st
			errs[p] = err
		}(p)
	}
	wg.Wait()
	if sent, got := hub.sent.Load(), MergeStats(stats).Messages; sent != got {
		t.Errorf("peers=%d workers=%d: frame headers charged %d sent messages, receivers counted %d", peers, workers, sent, got)
	}
	return stats, errs
}

// clusterMatrix is the peers × workers grid every engine-level cluster
// test sweeps. 144 peers put one vertex on each peer of the 12×12 torus.
func clusterMatrix() (cells [][2]int) {
	for _, peers := range []int{2, 3, 5, 144} {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			cells = append(cells, [2]int{peers, workers})
		}
	}
	return cells
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maskExecutionStats zeroes the counters that legitimately depend on how a
// run executed rather than what it computed: buffer warmup and the wire
// itself (see MergeStats).
func maskExecutionStats(s Stats) Stats {
	s.StepGrows, s.DeliverGrows = 0, 0
	s.WireBytes, s.FramesSent, s.FramesRecv = 0, 0, 0
	return s
}

// TestClusterDeterminism is the determinism contract of cluster mode: the
// messy mixProc workload (RNG traffic, sleeps, replies, staggered halts)
// must produce per-node results and merged engine statistics identical to
// the single-process run, for several peer and worker counts.
func TestClusterDeterminism(t *testing.T) {
	g := torusGraph(12) // n = 144
	ref := make([]*mixProc, g.N())
	refNet, err := NewNetwork(g, Config{Workers: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	refStats, err := refNet.Run(func(id int) Process {
		ref[id] = &mixProc{id: id}
		return ref[id]
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range clusterMatrix() {
		peers, workers := tc[0], tc[1]
		procs := make([]*mixProc, g.N())
		stats, errs := runClusterPeers(t, g, peers, workers, Config{Seed: 42}, func(id int) Process {
			procs[id] = &mixProc{id: id}
			return procs[id]
		})
		if err := firstErr(errs); err != nil {
			t.Fatalf("peers=%d workers=%d: %v", peers, workers, err)
		}
		for u := range procs {
			if procs[u] == nil {
				t.Fatalf("peers=%d: node %d never constructed", peers, u)
			}
			if procs[u].acc != ref[u].acc || len(procs[u].trace) != len(ref[u].trace) {
				t.Fatalf("peers=%d workers=%d: node %d diverged (acc %d vs %d, %d vs %d trace entries)",
					peers, workers, u, procs[u].acc, ref[u].acc, len(procs[u].trace), len(ref[u].trace))
			}
			for i := range procs[u].trace {
				if procs[u].trace[i] != ref[u].trace[i] {
					t.Fatalf("peers=%d: node %d trace[%d] diverged", peers, u, i)
				}
			}
		}
		merged := MergeStats(stats)
		if !merged.HaltedAll {
			t.Fatalf("peers=%d workers=%d: merged stats not HaltedAll", peers, workers)
		}
		if merged.FramesSent == 0 || merged.WireBytes == 0 {
			t.Fatalf("peers=%d: no wire traffic recorded: %+v", peers, merged)
		}
		if merged.FramesSent != merged.FramesRecv {
			t.Fatalf("peers=%d: %d frames sent, %d received", peers, merged.FramesSent, merged.FramesRecv)
		}
		a, b := maskExecutionStats(merged), maskExecutionStats(*refStats)
		if a != b {
			t.Errorf("peers=%d workers=%d: merged stats\n %+v\nwant\n %+v", peers, workers, a, b)
		}
	}
	if refStats.WireBytes != 0 || refStats.FramesSent != 0 || refStats.FramesRecv != 0 {
		t.Errorf("loopback run recorded wire traffic: %+v", refStats)
	}
}

// TestClusterChurnMatchesLoopback runs volatile traffic under oblivious
// churn: bounced sends sit in the sender's outbox but never cross the wire,
// so the sender-charged Sent must exclude them (runClusterPeers checks the
// sum) while every node's trace matches the single-process run.
func TestClusterChurnMatchesLoopback(t *testing.T) {
	g := torusGraph(12)
	cfg := Config{Seed: 42, Topology: &churnProvider{seed: 99, rate: 3}}
	run := func(peers, workers int) ([]*volatileMix, Stats) {
		procs := make([]*volatileMix, g.N())
		newProc := func(id int) Process {
			procs[id] = &volatileMix{id: id}
			return procs[id]
		}
		if peers == 1 {
			c := cfg
			c.Workers = workers
			net, err := NewNetwork(g, c)
			if err != nil {
				t.Fatal(err)
			}
			st, err := net.Run(newProc)
			if err != nil {
				t.Fatal(err)
			}
			return procs, *st
		}
		stats, errs := runClusterPeers(t, g, peers, workers, cfg, newProc)
		if err := firstErr(errs); err != nil {
			t.Fatal(err)
		}
		return procs, MergeStats(stats)
	}
	refProcs, refStats := run(1, 1)
	if refStats.DroppedSends == 0 {
		t.Fatal("churn workload bounced nothing")
	}
	for _, tc := range clusterMatrix() {
		peers, workers := tc[0], tc[1]
		procs, stats := run(peers, workers)
		for u := range procs {
			if procs[u].acc != refProcs[u].acc || len(procs[u].trace) != len(refProcs[u].trace) {
				t.Fatalf("peers=%d workers=%d: node %d diverged", peers, workers, u)
			}
		}
		if a, b := maskExecutionStats(stats), maskExecutionStats(refStats); a != b {
			t.Errorf("peers=%d workers=%d: merged stats\n %+v\nwant\n %+v", peers, workers, a, b)
		}
	}
}

// sleeperProc sleeps far ahead and halts on wake; the whole network goes
// quiet, so the engine must fast-forward — and in cluster mode every peer
// must skip the same rounds from the folded MinWake of the frame headers.
type sleeperProc struct{ id int }

func (p *sleeperProc) Init(ctx *Context) {}
func (p *sleeperProc) Step(ctx *Context) {
	if ctx.Round() < 2 {
		ctx.Sleep(40 + p.id%3)
		return
	}
	ctx.Halt()
}

func TestClusterFastForwardMatchesLoopback(t *testing.T) {
	g := torusGraph(12)
	newProc := func(id int) Process { return &sleeperProc{id: id} }
	refNet, err := NewNetwork(g, Config{Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	refStats, err := refNet.Run(newProc)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.SkippedRounds == 0 {
		t.Fatal("workload did not exercise fast-forward")
	}
	for _, tc := range clusterMatrix() {
		peers, workers := tc[0], tc[1]
		stats, errs := runClusterPeers(t, g, peers, workers, Config{Seed: 7}, newProc)
		if err := firstErr(errs); err != nil {
			t.Fatal(err)
		}
		merged := MergeStats(stats)
		if a, b := maskExecutionStats(merged), maskExecutionStats(*refStats); a != b {
			t.Errorf("peers=%d workers=%d: cluster fast-forward stats\n %+v\nwant\n %+v", peers, workers, a, b)
		}
		for p, st := range stats {
			if st.Rounds != refStats.Rounds || st.SkippedRounds != refStats.SkippedRounds {
				t.Errorf("peers=%d workers=%d peer %d: rounds %d (skipped %d), want %d (%d)",
					peers, workers, p, st.Rounds, st.SkippedRounds, refStats.Rounds, refStats.SkippedRounds)
			}
		}
	}
}

// overSender floods one edge far past the budget in round 3: the peer
// owning node 0 hits a BandwidthError mid-run, and its round-3 frame
// carries the error to every other peer, which must abort in the same
// round without deadlocking.
type overSender struct{ id int }

func (p *overSender) Init(ctx *Context) {}
func (p *overSender) Step(ctx *Context) {
	if p.id == 0 && ctx.Round() == 3 {
		for i := 0; i < 64; i++ {
			ctx.SendNbr(0, Message{Kind: 1, Seq: int32(i), Bits: 1 << 20})
		}
		return
	}
	if ctx.Round() > 10 {
		ctx.Halt()
	}
}

// initFailer fails in Init on the last node, so the abort rides the
// round-0 frames.
type initFailer struct{ id, n int }

func (p *initFailer) Init(ctx *Context) {
	if p.id == p.n-1 {
		ctx.SendNbr(0, Message{Kind: 1}) // Bits 0: a SendError
	}
}
func (p *initFailer) Step(ctx *Context) { ctx.Halt() }

func TestClusterPropagatesRunErrors(t *testing.T) {
	g := torusGraph(12)
	for _, tc := range clusterMatrix() {
		peers, workers := tc[0], tc[1]
		stats, errs := runClusterPeers(t, g, peers, workers, Config{Seed: 1}, func(id int) Process { return &overSender{id: id} })
		var bw *BandwidthError
		if !errors.As(errs[0], &bw) {
			t.Fatalf("peers=%d workers=%d: the violating peer returned %v, want its BandwidthError", peers, workers, errs[0])
		}
		for p := 1; p < peers; p++ {
			if errs[p] == nil || !strings.Contains(errs[p].Error(), "cluster aborted in round 3: ") ||
				!strings.Contains(errs[p].Error(), bw.Error()) {
				t.Fatalf("peers=%d workers=%d peer %d: error %v, want the round-3 abort carrying %q", peers, workers, p, errs[p], bw)
			}
		}
		for p, st := range stats {
			if st.Rounds != 3 {
				t.Fatalf("peers=%d workers=%d peer %d stopped at round %d, want 3", peers, workers, p, st.Rounds)
			}
		}

		n := g.N()
		_, errs = runClusterPeers(t, g, peers, workers, Config{Seed: 1}, func(id int) Process { return &initFailer{id: id, n: n} })
		var se *SendError
		if !errors.As(errs[peers-1], &se) {
			t.Fatalf("peers=%d workers=%d: the failing peer returned %v, want its SendError", peers, workers, errs[peers-1])
		}
		for p := 0; p < peers-1; p++ {
			if errs[p] == nil || !strings.Contains(errs[p].Error(), "cluster aborted in round 0: ") {
				t.Fatalf("peers=%d workers=%d peer %d: error %v, want the round-0 abort", peers, workers, p, errs[p])
			}
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	g := torusGraph(4)
	ex := &memExchanger{hub: newMemHub(2), self: 0}
	ok := ClusterConfig{Peer: 0, Peers: 2, Exchange: ex}
	cases := map[string]Config{
		"one peer":       {Cluster: &ClusterConfig{Peer: 0, Peers: 1, Exchange: ex}},
		"peer range":     {Cluster: &ClusterConfig{Peer: 2, Peers: 2, Exchange: ex}},
		"too many peers": {Cluster: &ClusterConfig{Peer: 0, Peers: 17, Exchange: ex}},
		"missing fabric": {Cluster: &ClusterConfig{Peer: 0, Peers: 2}},
		"onround":        {OnRound: func(int) bool { return false }, Cluster: &ok},
		"adaptive churn": {Topology: adaptiveStub{}, Cluster: &ok},
	}
	for name, cfg := range cases {
		if _, err := NewNetwork(g, cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if _, err := NewNetwork(g, Config{Cluster: &ok}); err != nil {
		t.Errorf("valid cluster config rejected: %v", err)
	}
}

// adaptiveStub is the minimal AdaptiveProvider: validation must reject it
// in cluster mode.
type adaptiveStub struct{}

func (adaptiveStub) Start(*Topology)           {}
func (adaptiveStub) ApplyRound(int, *Topology) {}
func (adaptiveStub) Adaptive() bool            { return true }
