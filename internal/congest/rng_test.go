package congest

import (
	"math/rand"
	"testing"
)

// lateDrawer draws from its RNG for the first time in round
// firstRounds[(id+shift)%3] (0 = Init), three values, and two more in round
// 9; it halts in round 10.
type lateDrawer struct {
	id, shift int
	draws     []int64
}

var firstRounds = [3]int{0, 1, 7}

func (p *lateDrawer) Init(ctx *Context) { p.Step(ctx) }

func (p *lateDrawer) Step(ctx *Context) {
	switch r := ctx.Round(); {
	case r == firstRounds[(p.id+p.shift)%3]:
		for i := 0; i < 3; i++ {
			p.draws = append(p.draws, ctx.Rand().Int63())
		}
	case r == 9:
		p.draws = append(p.draws, ctx.Rand().Int63(), ctx.Rand().Int63())
	case r >= 10:
		ctx.Halt()
	}
}

// TestRandFirstUse: a node's RNG is seeded on its first Rand of the run,
// whichever round that is, so its draws equal a splitmix64 seeded with
// nodeSeed(seed, id) — on a fresh network, and on a reused one whose
// second run is reseeded with SetSeed and first draws in other rounds.
// The 256-node torus runs its step phases on the pool at Workers > 1, so
// the shards carve RNG state concurrently.
func TestRandFirstUse(t *testing.T) {
	g := torusGraph(16)
	run := func(t *testing.T, net *Network, shift int) {
		t.Helper()
		procs := make([]*lateDrawer, g.N())
		if _, err := net.Run(func(id int) Process {
			procs[id] = &lateDrawer{id: id, shift: shift}
			return procs[id]
		}); err != nil {
			t.Fatal(err)
		}
		for u, p := range procs {
			ref := rand.New(&splitmix64{x: uint64(nodeSeed(net.Seed(), u))})
			if len(p.draws) != 5 {
				t.Fatalf("node %d drew %d values, want 5", u, len(p.draws))
			}
			for i, got := range p.draws {
				if want := ref.Int63(); got != want {
					t.Fatalf("seed %d node %d (first draw in round %d): draw %d = %d, want %d",
						net.Seed(), u, firstRounds[(u+shift)%3], i, got, want)
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		fresh, err := NewNetwork(g, Config{Workers: workers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		run(t, fresh, 0)

		reused, err := NewNetwork(g, Config{Workers: workers, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		run(t, reused, 0)
		reused.SetSeed(11)
		run(t, reused, 1)
	}
}
