package congest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// ---- the inbox contract, checked against an independent model ----

const (
	contractN       = 96 // ≥ parallelMin, so Workers 2 and 4 really shard
	contractHorizon = 16 // senders send in rounds [1, contractHorizon)
	contractSleep   = 3
)

// starGraph is the star with center 0 and leaves 1..n-1.
func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// contractSends is how many messages leaf s sends to the center in round
// r: none in every fourth round (so the center's sleep runs out with an
// empty inbox), otherwise one to three for about a ninth of the leaves.
func contractSends(s, r int) int {
	if r%4 == 0 || r >= contractHorizon || (s+r)%9 != 0 {
		return 0
	}
	return 1 + (s/9+r)%3
}

// contractDown reports whether the edge {0, s} is inactive in round r of
// the dynamic variant.
func contractDown(s, r int) bool { return s%2 == 0 && r%3 == 0 }

// contractMsg is the j-th message leaf s sends in round r, as sent.
func contractMsg(s, r, j int) Message {
	return Message{Kind: 7, Flags: FlagVolatile, Seq: int32(j), Value: int64(1000*s + r), Aux: int64(r), Bits: 8}
}

// inboxStep is one Step of a node: the round and a copy of its inbox.
type inboxStep struct {
	Round int
	Inbox []Message
}

// contractProc: the center sleeps contractSleep rounds after every step
// and logs what it is woken with; each leaf sends contractSends messages
// to the center per round — by Send, SendNbr and Broadcast in turn — and
// logs the bounces it receives.
type contractProc struct {
	id  int
	log []inboxStep
}

func (p *contractProc) Init(ctx *Context) {}
func (p *contractProc) Step(ctx *Context) {
	r := ctx.Round()
	if len(ctx.Inbox()) > 0 || p.id == 0 {
		p.log = append(p.log, inboxStep{r, append([]Message(nil), ctx.Inbox()...)})
	}
	if p.id == 0 {
		if r >= contractHorizon {
			ctx.Halt()
			return
		}
		ctx.Sleep(contractSleep)
		return
	}
	for j := 0; j < contractSends(p.id, r); j++ {
		switch m := contractMsg(p.id, r, j); j {
		case 0:
			ctx.Send(0, m)
		case 1:
			ctx.SendNbr(0, m) // the center is every leaf's only neighbor
		default:
			ctx.Broadcast(m)
		}
	}
	if r >= contractHorizon {
		ctx.Halt()
	}
}

// expectedContract models the engine's delivery rules directly: a message
// sent in round r arrives in round r+1 stamped Round r+1, inboxes are
// ordered by sender id and then send order, a sleeper is stepped when mail
// arrives or its sleep runs out, and a volatile send over an inactive edge
// comes back to its sender flagged, with From naming the unreachable
// neighbor.
func expectedContract(dynamic bool) (center []inboxStep, leaves map[int][]inboxStep) {
	leaves = map[int][]inboxStep{}
	wake := 0
	for r := 1; ; r++ {
		var mail []Message
		for s := 1; s < contractN; s++ {
			var bounced []Message
			for j := 0; j < contractSends(s, r-1); j++ {
				m := contractMsg(s, r-1, j)
				m.Round = int32(r)
				if dynamic && contractDown(s, r-1) {
					m.From = 0
					m.Flags |= FlagBounced
					bounced = append(bounced, m)
					continue
				}
				m.From = int32(s)
				mail = append(mail, m)
			}
			if bounced != nil {
				leaves[s] = append(leaves[s], inboxStep{r, bounced})
			}
		}
		if r < wake && len(mail) == 0 {
			continue
		}
		center = append(center, inboxStep{r, mail})
		if r >= contractHorizon {
			return center, leaves
		}
		wake = r + contractSleep
	}
}

// TestInboxContract checks inboxes against the model at Workers 1, 2 and
// 4, on a static and a dynamic network. Comparing worker counts with each
// other cannot catch a stamping or ordering bug they all share; the model
// can.
func TestInboxContract(t *testing.T) {
	g := starGraph(contractN)
	for _, dynamic := range []bool{false, true} {
		wantCenter, wantLeaves := expectedContract(dynamic)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("dynamic=%v/workers=%d", dynamic, workers), func(t *testing.T) {
				cfg := Config{Workers: workers}
				if dynamic {
					cfg.Topology = &funcProvider{apply: func(r int, tp *Topology) {
						for s := 2; s < contractN; s += 2 {
							tp.SetEdge(0, s, !contractDown(s, r))
						}
					}}
				}
				net, err := NewNetwork(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				procs := make([]*contractProc, contractN)
				if _, err := net.Run(func(id int) Process {
					procs[id] = &contractProc{id: id}
					return procs[id]
				}); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(procs[0].log, wantCenter) {
					t.Errorf("center inboxes:\n got %+v\nwant %+v", procs[0].log, wantCenter)
				}
				for s := 1; s < contractN; s++ {
					if got, want := procs[s].log, wantLeaves[s]; !reflect.DeepEqual(got, want) {
						t.Errorf("leaf %d bounces:\n got %+v\nwant %+v", s, got, want)
					}
				}
			})
		}
		if len(wantCenter) >= contractHorizon {
			t.Fatalf("the center never slept through a round: %d steps", len(wantCenter))
		}
	}
}

// ---- the message path's cost ----

// BenchmarkMessagePath times the engine's per-message path — validate,
// charge the edge, write the outbox entry, drain it into the inbox — with
// a Broadcast flood on ringcliques 4×8 at Workers 1. One op is one round
// of a long run on a warm network, so allocs/op reads 0 when the steady
// state allocates nothing.
func BenchmarkMessagePath(b *testing.B) {
	g, err := gen.RingOfCliques(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(g, Config{Workers: 1, MaxRounds: b.N + 8})
	if err != nil {
		b.Fatal(err)
	}
	procs := make([]floodEcho, g.N())
	run := func(horizon int) *Stats {
		for i := range procs {
			procs[i].horizon = horizon
		}
		st, err := net.Run(func(id int) Process { return &procs[id] })
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	run(8) // warm the mailboxes and inboxes
	b.ReportAllocs()
	b.ResetTimer()
	st := run(b.N)
	if st.Messages > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Messages), "ns/msg")
	}
}
