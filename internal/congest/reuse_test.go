package congest

import (
	"runtime"
	"testing"
)

// runMix executes one mixProc workload on the given (possibly reused)
// network and returns the per-node accumulators plus the run statistics.
func runMix(t *testing.T, net *Network) ([]int64, *Stats) {
	t.Helper()
	procs := make([]*mixProc, net.Graph().N())
	stats, err := net.Run(func(id int) Process {
		procs[id] = &mixProc{id: id}
		return procs[id]
	})
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]int64, len(procs))
	for u, p := range procs {
		accs[u] = p.acc
	}
	return accs, stats
}

// simEqual compares two Stats modulo the allocation counters, which
// describe the execution (how warm the buffers were), not the simulation.
func simEqual(a, b *Stats) bool {
	x, y := *a, *b
	x.StepGrows, x.DeliverGrows = 0, 0
	y.StepGrows, y.DeliverGrows = 0, 0
	return x == y
}

// TestRunReuse is the network-reuse regression: back-to-back Runs on one
// network must reproduce a fresh network's results exactly — same per-node
// state, same simulation statistics — for the same seed, with the warm
// second run performing no buffer growth at all.
func TestRunReuse(t *testing.T) {
	g := torusGraph(12)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		fresh, err := NewNetwork(g, Config{Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		wantAccs, wantStats := runMix(t, fresh)

		reused, err := NewNetwork(g, Config{Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		first, firstStats := runMix(t, reused)
		second, secondStats := runMix(t, reused)
		for u := range wantAccs {
			if first[u] != wantAccs[u] {
				t.Fatalf("workers=%d: first run diverged from fresh network at node %d", workers, u)
			}
			if second[u] != wantAccs[u] {
				t.Fatalf("workers=%d: reused run diverged from fresh network at node %d", workers, u)
			}
		}
		if !simEqual(firstStats, wantStats) || !simEqual(secondStats, wantStats) {
			t.Errorf("workers=%d: stats diverged: fresh %+v first %+v reused %+v",
				workers, wantStats, firstStats, secondStats)
		}
		// The first Stats must be a private copy, not a view of the
		// network's accumulator that the second run rewound.
		if firstStats.Rounds == 0 || firstStats.Messages == 0 {
			t.Errorf("workers=%d: first run's stats were clobbered by reuse: %+v", workers, firstStats)
		}
		// The whole point of reuse: the warm run grows nothing.
		if secondStats.StepGrows != 0 || secondStats.DeliverGrows != 0 {
			t.Errorf("workers=%d: warm reuse still grew buffers: stepGrows=%d deliverGrows=%d",
				workers, secondStats.StepGrows, secondStats.DeliverGrows)
		}
	}
}

// TestRunReuseSetSeed verifies reseeding between runs: a reused network with
// SetSeed(s) must reproduce a fresh network constructed with seed s, and
// distinct seeds must yield distinct executions.
func TestRunReuseSetSeed(t *testing.T) {
	g := torusGraph(8)
	net, err := NewNetwork(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	accs1, _ := runMix(t, net)
	net.SetSeed(2)
	if net.Seed() != 2 {
		t.Fatalf("Seed() = %d after SetSeed(2)", net.Seed())
	}
	accs2, stats2 := runMix(t, net)

	fresh2, err := NewNetwork(g, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want2, wantStats2 := runMix(t, fresh2)
	for u := range want2 {
		if accs2[u] != want2[u] {
			t.Fatalf("reseeded reuse diverged from fresh seed-2 network at node %d", u)
		}
	}
	if !simEqual(stats2, wantStats2) {
		t.Errorf("reseeded stats %+v, fresh seed-2 stats %+v", stats2, wantStats2)
	}
	same := true
	for u := range accs1 {
		if accs1[u] != accs2[u] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical executions — reseed did not take")
	}
}
