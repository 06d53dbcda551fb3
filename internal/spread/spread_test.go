package spread

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestFullSpreadingOnComplete(t *testing.T) {
	g, _ := gen.Complete(32)
	res, err := Run(g, Config{Beta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToFull < 1 {
		t.Fatal("full spreading not reached")
	}
	// Push–pull on K_n completes in O(log n) rounds w.h.p.
	if res.RoundsToFull > 40 {
		t.Errorf("K32 full spreading took %d rounds", res.RoundsToFull)
	}
	if res.MinTokensPerNode != 32 || res.MinNodesPerToken != 32 {
		t.Error("final state not complete")
	}
}

// TestPartialBeforeFull: partial spreading is reached no later than full.
func TestPartialBeforeFull(t *testing.T) {
	g, _ := gen.RingOfCliques(4, 8)
	res, err := Run(g, Config{Beta: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToPartial < 0 || res.RoundsToFull < 0 {
		t.Fatal("spreading incomplete")
	}
	if res.RoundsToPartial > res.RoundsToFull {
		t.Errorf("partial %d after full %d", res.RoundsToPartial, res.RoundsToFull)
	}
}

// TestBarbellPartialFastFullSlow is the paper's headline application claim
// (§1, §4): on barbell-like graphs partial information spreading is
// dramatically faster than full spreading, because the local mixing time is
// O(1) while the mixing time is Ω(β²).
func TestBarbellPartialFastFullSlow(t *testing.T) {
	g, err := gen.Barbell(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{Beta: 8, Seed: 3, MaxRounds: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToPartial <= 0 {
		t.Fatal("partial spreading not reached")
	}
	logn := math.Log2(float64(g.N()))
	if float64(res.RoundsToPartial) > 12*logn {
		t.Errorf("partial spreading %d rounds, want O(τ log n) = O(log n) on the barbell", res.RoundsToPartial)
	}
	if res.RoundsToFull < 2*res.RoundsToPartial {
		t.Errorf("expected a clear gap: partial %d, full %d", res.RoundsToPartial, res.RoundsToFull)
	}
}

func TestStopAtPartial(t *testing.T) {
	g, _ := gen.RingOfCliques(4, 8)
	res, err := Run(g, Config{Beta: 4, Seed: 4, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != res.RoundsToPartial {
		t.Errorf("should stop at partial: rounds=%d partial=%d", res.Rounds, res.RoundsToPartial)
	}
}

// TestFixedRoundsTermination is the Theorem 3 termination rule: run for
// c·τ·log n rounds and verify partial spreading holds.
func TestFixedRoundsTermination(t *testing.T) {
	g, err := gen.Barbell(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	// τ(β,ε) on the barbell is O(1); use τ̂=4 and c=3.
	budget := int(3 * 4 * math.Log2(float64(g.N())))
	res, err := Run(g, Config{Beta: 8, Seed: 5, FixedRounds: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != budget {
		t.Errorf("fixed run executed %d rounds, want %d", res.Rounds, budget)
	}
	target := g.N() / 8
	if res.MinTokensPerNode < target || res.MinNodesPerToken < target {
		t.Errorf("termination rule failed: held=%d reach=%d target=%d",
			res.MinTokensPerNode, res.MinNodesPerToken, target)
	}
}

func TestRunCollecting(t *testing.T) {
	g, _ := gen.Complete(16)
	col, err := RunCollecting(g, Config{Beta: 2, Seed: 6, StopAtPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Known) != 16 {
		t.Fatal("missing token sets")
	}
	for u, s := range col.Known {
		if !s.Contains(u) {
			t.Errorf("node %d lost its own token", u)
		}
		if s.Count() < 8 {
			t.Errorf("node %d holds %d tokens, want ≥ 8", u, s.Count())
		}
	}
}

// TestRunDeterministicAcrossWorkers: Run is the only LOCAL push–pull path,
// and from snapParallelMin nodes on its snapshot phase fans out over the
// walkkernel pool. The worker count must change neither the tallies nor any
// node's final token set.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g, err := gen.Hypercube(11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < snapParallelMin {
		t.Fatalf("n = %d is below snapParallelMin = %d: the parallel snapshot phase would not run", g.N(), snapParallelMin)
	}
	cfg := Config{Beta: 4, Seed: 5, StopAtPartial: true}
	var ref *Collected
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg.Workers = w
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := RunCollecting(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, col.Result) {
			t.Fatalf("workers=%d: Run %+v, RunCollecting %+v", w, res, col.Result)
		}
		if ref == nil {
			if res.RoundsToPartial < 1 {
				t.Fatalf("degenerate run: %+v", res)
			}
			ref = col
			continue
		}
		if !reflect.DeepEqual(col.Result, ref.Result) {
			t.Errorf("workers=%d changed the result: %+v vs %+v", w, col.Result, ref.Result)
		}
		if !reflect.DeepEqual(col.Known, ref.Known) {
			t.Errorf("workers=%d changed the final token sets", w)
		}
	}
}

func TestValidation(t *testing.T) {
	g, _ := gen.Complete(8)
	if _, err := Run(g, Config{Beta: 0.5}); err == nil {
		t.Error("β < 1 accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := Run(b.Build(), Config{Beta: 2}); err == nil {
		t.Error("disconnected accepted")
	}
	single := graph.NewBuilder(1).Build()
	if _, err := Run(single, Config{Beta: 1}); err == nil {
		t.Error("singleton accepted")
	}
}

func TestDeterministicSeeds(t *testing.T) {
	g, _ := gen.RingOfCliques(3, 6)
	a, err := Run(g, Config{Beta: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{Beta: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.RoundsToPartial != b.RoundsToPartial || a.RoundsToFull != b.RoundsToFull {
		t.Error("same seed, different outcome")
	}
}

func TestLeaderElection(t *testing.T) {
	g, _ := gen.RingOfCliques(4, 8)
	rounds, err := LeaderElection(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Error("leader election reported zero rounds")
	}
	full, err := Run(g, Config{Beta: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Min-id dissemination is no slower than full spreading of all tokens
	// under the same mechanism (sanity of magnitudes only, seeds differ).
	if rounds > 4*full.RoundsToFull+16 {
		t.Errorf("leader election %d rounds vs full spreading %d", rounds, full.RoundsToFull)
	}
}

func TestLeaderElectionValidation(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := LeaderElection(b.Build(), 1, 0); err == nil {
		t.Error("disconnected accepted")
	}
}
