package exact

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestCandidateSizesEdgeProfile pins the documented edge cases: β ≈ 1 and
// β = 1 collapse to the single size n, β > n floors at 1, a huge grid step
// collapses the ladder to two sizes, and the last element is always n.
func TestCandidateSizesEdgeProfile(t *testing.T) {
	if s := CandidateSizes(100, 1, true, 0.25); len(s) != 1 || s[0] != 100 {
		t.Errorf("β=1 grid: %v, want [100]", s)
	}
	if s := CandidateSizes(100, 1.0000001, true, 0.25); len(s) != 1 || s[0] != 100 {
		t.Errorf("β≈1 grid should still be [n]: %v", s)
	}
	if s := CandidateSizes(100, 1, false, 0); len(s) != 1 || s[0] != 100 {
		t.Errorf("β=1 full: %v, want [100]", s)
	}
	if s := CandidateSizes(7, 1e9, false, 0); s[0] != 1 || len(s) != 7 {
		t.Errorf("β≫n full should enumerate 1..n: %v", s)
	}
	if s := CandidateSizes(7, 1e9, true, 0.5); s[0] != 1 || s[len(s)-1] != 7 {
		t.Errorf("β≫n grid must start at 1 and end at n: %v", s)
	}
	// A grid step so large the geometric ladder jumps straight past n: the
	// schedule must still include n itself (Algorithm 2's final probe).
	if s := CandidateSizes(1000, 10, true, 1e6); len(s) != 2 || s[0] != 100 || s[1] != 1000 {
		t.Errorf("huge step should collapse to [n/β, n]: %v", s)
	}
	for _, n := range []int{1, 2, 17, 1000} {
		for _, beta := range []float64{1, 1.5, 4, 1e12} {
			for _, step := range []float64{0.01, 0.3, 7} {
				for _, grid := range []bool{false, true} {
					s := CandidateSizes(n, beta, grid, step)
					if len(s) == 0 || s[len(s)-1] != n {
						t.Fatalf("n=%d β=%g step=%g grid=%v: last size of %v is not n", n, beta, step, grid, s)
					}
					for i := 1; i < len(s); i++ {
						if s[i] <= s[i-1] {
							t.Fatalf("n=%d β=%g step=%g grid=%v: not increasing: %v", n, beta, step, grid, s)
						}
					}
				}
			}
		}
	}
}

// TestOracleWorkerDeterminism: the complete oracle outputs — T, R, Dist and
// the witness Set of LocalMixing (grid and non-grid, the latter exercising
// the parallel candidate-size scan), GraphMixingTime, and the full walk
// distribution — are identical for Workers ∈ {1, 2, GOMAXPROCS}. This is
// the acceptance contract of the parallel kernel.
func TestOracleWorkerDeterminism(t *testing.T) {
	torus, err := gen.Torus(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	roc, err := gen.RingOfCliques(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}

	runLocal := func(w int, grid bool) LocalResult {
		t.Helper()
		g, beta := torus, 8.0
		if !grid {
			g, beta = roc, 6.0
		}
		res, err := LocalMixing(g, 3, beta, 0.2, LocalOptions{MaxT: 1 << 14, Grid: grid, Lazy: true, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d grid=%v: %v", w, grid, err)
		}
		return *res
	}
	for _, grid := range []bool{true, false} {
		ref := runLocal(counts[0], grid)
		for _, w := range counts[1:] {
			if got := runLocal(w, grid); !reflect.DeepEqual(got, ref) {
				t.Errorf("LocalMixing grid=%v workers=%d: %+v != %+v", grid, w, got, ref)
			}
		}
	}

	graphMixing := func(w int) (int, error) {
		k, err := NewKernel(torus, w)
		if err != nil {
			return 0, err
		}
		return GraphMixingTimeKernel(context.Background(), torus, k, 0.4, true, 1<<14)
	}
	refGM, err := graphMixing(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range counts[1:] {
		gm, err := graphMixing(w)
		if err != nil {
			t.Fatal(err)
		}
		if gm != refGM {
			t.Errorf("GraphMixingTime workers=%d: %d != %d", w, gm, refGM)
		}
	}

	walk := func(w int) (*Walk, error) {
		k, err := NewKernel(torus, w)
		if err != nil {
			return nil, err
		}
		return k.NewWalk(7, true), nil
	}
	refWalk, err := walk(1)
	if err != nil {
		t.Fatal(err)
	}
	refWalk.StepN(200)
	for _, w := range counts[1:] {
		wk, err := walk(w)
		if err != nil {
			t.Fatal(err)
		}
		wk.StepN(200)
		for v, pv := range wk.P() {
			if pv != refWalk.P()[v] {
				t.Fatalf("walk workers=%d: p[%d] = %x, want %x", w, v, pv, refWalk.P()[v])
			}
		}
	}
}

// TestGraphMixingTimeMatchesPerSource cross-validates the batched sweep
// against a loop of single-source MixingTime calls on irregular graphs.
func TestGraphMixingTimeMatchesPerSource(t *testing.T) {
	lolli, err := gen.Lollipop(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	dumb, err := gen.Dumbbell(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{lolli, dumb} {
		batched, err := GraphMixingTime(g, 0.25, true, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0
		for s := 0; s < g.N(); s++ {
			ts, err := MixingTime(g, s, 0.25, true, 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			if ts > worst {
				worst = ts
			}
		}
		if batched != worst {
			t.Errorf("%s: batched τ_mix = %d, per-source max = %d", g.Name(), batched, worst)
		}
	}
}
