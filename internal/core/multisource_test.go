package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exact"
	"repro/internal/fixedpoint"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sweep"
)

func TestGraphLocalMixingTimeAllSources(t *testing.T) {
	g, err := gen.RingOfCliques(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ExactLocal, Beta: 3, Eps: 0.1}
	multi, err := sweepOnce(g, cfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != g.N() {
		t.Fatalf("results for %d sources, want %d", len(multi.Results), g.N())
	}
	// The distributed max must equal the max of per-source twins.
	scale := fixedpoint.MustScaleFor(g.N(), fixedpoint.DefaultC)
	want := -1
	for s := 0; s < g.N(); s++ {
		twin, err := exact.FixedLocalMixing(g, s, scale, 3, 0.1, false, exact.Units(4*g.N()*g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if twin.Tau > want {
			want = twin.Tau
		}
	}
	if multi.Tau != want {
		t.Errorf("graph-wide τ = %d, twin max %d", multi.Tau, want)
	}
	if multi.TotalRounds < g.N() {
		t.Error("total rounds suspiciously small")
	}
}

func TestGraphLocalMixingTimeSampled(t *testing.T) {
	g, err := gen.RingOfCliques(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ApproxLocal, Beta: 3, Eps: 0.1}
	multi, err := sweepOnce(g, cfg, SweepOptions{Sources: []int{0, 7, 12}})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != 3 {
		t.Fatalf("results %d", len(multi.Results))
	}
	full, err := sweepOnce(g, cfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling under-approximates but never exceeds the full max, and on
	// this symmetric graph should match it.
	if multi.Tau > full.Tau {
		t.Errorf("sampled τ %d exceeds full τ %d", multi.Tau, full.Tau)
	}
	if multi.Tau != full.Tau {
		t.Logf("note: sampled %d vs full %d (symmetric graph, usually equal)", multi.Tau, full.Tau)
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the acceptance invariant: the
// full MultiResult — per-source Tau/R/Sum/Phases/Stats, canonical order,
// aggregate counters — is identical for Workers ∈ {1, 2, GOMAXPROCS}, with
// randomized tie-breaking enabled so the per-source RNG streams actually
// matter.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	g, err := gen.RingOfCliques(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ApproxLocal, Beta: 3, Eps: 0.1, TieBreakBits: 4}
	cfg.Engine.Seed = 1234
	ref, err := sweepOnce(g, cfg, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Results) != g.N() || len(ref.Sources) != g.N() {
		t.Fatalf("sweep covered %d sources, want %d", len(ref.Results), g.N())
	}
	if ref.TotalMessages == 0 || ref.TotalBits == 0 {
		t.Fatalf("aggregate counters missing: %+v", ref)
	}
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := sweepOnce(g, cfg, SweepOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: MultiResult diverged from workers=1", w)
		}
	}
}

// TestSweepMatchesSerialDerivedSeeds pins the seed-derivation contract
// end-to-end: each sweep slot must equal a fresh serial Run whose engine
// seed is sweep.DeriveSeed(base, source) — and per-source seeds must no
// longer be the base seed verbatim (the old correlated-seed bug).
func TestSweepMatchesSerialDerivedSeeds(t *testing.T) {
	g, err := gen.RingOfCliques(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	const base = 77
	cfg := Config{Mode: ExactLocal, Beta: 3, Eps: 0.1, TieBreakBits: 3}
	cfg.Engine.Seed = base
	multi, err := sweepOnce(g, cfg, SweepOptions{Sources: []int{0, 5, 11}})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range multi.Sources {
		seed := sweep.DeriveSeed(base, s)
		if seed == base {
			t.Fatalf("source %d derived the base seed verbatim", s)
		}
		runCfg := cfg
		runCfg.Source = s
		runCfg.Engine.Seed = seed
		want, err := Run(g, runCfg)
		if err != nil {
			t.Fatal(err)
		}
		got := multi.Results[i]
		if got.Tau != want.Tau || got.R != want.R || got.Sum != want.Sum {
			t.Errorf("source %d: sweep (τ=%d R=%d Σ=%v) vs serial derived-seed run (τ=%d R=%d Σ=%v)",
				s, got.Tau, got.R, got.Sum, want.Tau, want.R, want.Sum)
		}
		ws := *want.Stats
		gs := *got.Stats
		ws.StepGrows, ws.DeliverGrows = 0, 0 // execution-, not simulation-level
		gs.StepGrows, gs.DeliverGrows = 0, 0
		if gs != ws {
			t.Errorf("source %d: sweep stats %+v, serial stats %+v", s, gs, ws)
		}
	}
	// End-to-end reproducibility of the whole sweep under a fixed base seed.
	again, err := sweepOnce(g, cfg, SweepOptions{Sources: []int{0, 5, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi, again) {
		t.Error("fixed-base-seed sweep is not reproducible end-to-end")
	}
}

// TestSweepPoolBackToBack reuses one pool for consecutive sweeps: warm
// networks and responder slabs must not leak state between sweeps.
func TestSweepPoolBackToBack(t *testing.T) {
	g, err := gen.RingOfCliques(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ApproxLocal, Beta: 3, Eps: 0.1, TieBreakBits: 2}
	cfg.Engine.Seed = 5
	pool, err := NewSweepPool(g, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pool.Sweep(SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := pool.Sweep(SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("back-to-back sweeps on one pool diverged")
	}
	// A sampled sweep on the warm pool matches the full sweep's slots.
	sampled, err := pool.Sweep(SweepOptions{Sample: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled.Sources) != 5 {
		t.Fatalf("sampled %d sources, want 5", len(sampled.Sources))
	}
	for i, s := range sampled.Sources {
		if !reflect.DeepEqual(sampled.Results[i], first.Results[s]) {
			t.Errorf("sampled result for source %d diverged from full sweep", s)
		}
	}
	if sampled.Tau > first.Tau {
		t.Errorf("sampled τ %d exceeds full τ %d", sampled.Tau, first.Tau)
	}
}

// TestGraphMixingTimeSweep checks the distributed mixing-time sweep: the
// graph-wide max must match per-source serial MixTime runs, and the
// aggregate counters must sum the per-source engine counters.
func TestGraphMixingTimeSweep(t *testing.T) {
	g, err := gen.RingOfCliques(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: MixTime, Eps: 0.25}
	cfg.Engine.Seed = 9
	multi, err := sweepOnce(g, cfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Results) != g.N() {
		t.Fatalf("results for %d sources, want %d", len(multi.Results), g.N())
	}
	want, wantArg := -1, -1
	var rounds int
	var msgs, bits int64
	for _, s := range multi.Sources {
		runCfg := cfg
		runCfg.Source = s
		runCfg.Engine.Seed = sweep.DeriveSeed(9, s)
		res, err := Run(g, runCfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tau > want {
			want, wantArg = res.Tau, s
		}
		rounds += res.Stats.Rounds
		msgs += res.Stats.Messages
		bits += res.Stats.Bits
	}
	if multi.Tau != want || multi.ArgMax != wantArg {
		t.Errorf("sweep τ_mix=%d argmax=%d, serial twin τ_mix=%d argmax=%d", multi.Tau, multi.ArgMax, want, wantArg)
	}
	if multi.TotalRounds != rounds || multi.TotalMessages != msgs || multi.TotalBits != bits {
		t.Errorf("aggregates (%d, %d, %d) do not sum the per-source counters (%d, %d, %d)",
			multi.TotalRounds, multi.TotalMessages, multi.TotalBits, rounds, msgs, bits)
	}
}

func TestGraphLocalMixingTimeValidation(t *testing.T) {
	g, _ := gen.Complete(8)
	cfg := Config{Mode: ExactLocal, Beta: 2, Eps: 0.1}
	if _, err := sweepOnce(g, cfg, SweepOptions{Sources: []int{}}); err == nil {
		t.Error("empty sources accepted")
	}
	if _, err := sweepOnce(g, cfg, SweepOptions{Sources: []int{99}}); err == nil {
		t.Error("bad source accepted")
	}
}

// sweepOnce runs one sweep on a fresh pool sized by o.Workers.
func sweepOnce(g *graph.Graph, cfg Config, o SweepOptions) (*MultiResult, error) {
	sp, err := NewSweepPool(g, cfg, o.Workers)
	if err != nil {
		return nil, err
	}
	return sp.Sweep(o)
}
