// Benchmark harness: one testing.B benchmark per experiment of the
// internal/bench registry (bench.All: E1–E19, A1–A4), plus micro-benchmarks
// of the substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the Small-scale workloads; use
// cmd/paperbench -scale full for the paper-shaped tables.
package localmix

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/dyngraph"
	"repro/internal/exact"
	"repro/internal/fixedpoint"
	"repro/internal/gen"
	"repro/internal/spread"
	"repro/internal/sweep"
	"repro/internal/walkkernel"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(bench.Small); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1BarbellGap(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2GraphClasses(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3ApproxRounds(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4ExactRounds(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5PartialSpreading(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6LocalVsGlobalCost(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7RoundingError(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8EscapeBound(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9SamplingGreyArea(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10SpectralBounds(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11WeakConductance(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12MaxCoverage(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkA1DoublingAblation(b *testing.B)  { benchExperiment(b, "A1") }
func BenchmarkA2EpsilonRelaxation(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkA3TieBreak(b *testing.B)          { benchExperiment(b, "A3") }
func BenchmarkA4Laziness(b *testing.B)          { benchExperiment(b, "A4") }

// ---- substrate micro-benchmarks ----

// BenchmarkFloodingStep measures one centralized fixed-point walk step
// (the per-round work Algorithm 1 induces at every node).
func BenchmarkFloodingStep(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		g, err := gen.RingOfCliques(8, k)
		if err != nil {
			b.Fatal(err)
		}
		scale := fixedpoint.MustScaleFor(g.N(), fixedpoint.DefaultC)
		b.Run(fmt.Sprintf("n=%d", g.N()), func(b *testing.B) {
			fw, err := exact.NewFixedWalk(g, 0, scale, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Step()
			}
		})
	}
}

// BenchmarkCongestAlgorithm2 measures a complete distributed Algorithm 2
// run, engine overhead included.
func BenchmarkCongestAlgorithm2(b *testing.B) {
	for _, k := range []int{8, 16} {
		g, err := gen.RingOfCliques(8, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", g.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ApproxLocalMixingTime(g, 0, 8, 0.15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateRW measures the distributed Algorithm 1 at several walk
// lengths (ℓ+1 CONGEST rounds each), reporting engine throughput. The
// lazy torus cases are the sparse footprint: B/vertex (heap bytes per job
// over n, the n-entry W's 8 included) and steps/op (Step calls per job)
// show whether a job pays for the vertices it touches.
func BenchmarkEstimateRW(b *testing.B) {
	g, err := gen.RingOfCliques(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, ell := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("ell=%d", ell), func(b *testing.B) {
			var rounds, msgs int64
			for i := 0; i < b.N; i++ {
				res, err := core.EstimateRWProbability(g, 0, ell, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Stats.Rounds)
				msgs += res.Stats.Messages
			}
			reportThroughput(b, rounds, msgs)
		})
	}
	// torus100 is the sparse footprint at ℓ = 16 (545 of 10^4 vertices
	// reached); torus1000 at ℓ = 4 reaches 41 of 10^6, so everything but the
	// n-entry W must follow the ball, not n.
	for _, c := range []struct {
		name string
		side int
		ell  int
	}{{"torus100/ell=16/lazy", 100, 16}, {"torus1000/ell=4/lazy", 1000, 4}} {
		torus, err := gen.Torus(c.side, c.side)
		if err != nil {
			b.Fatal(err)
		}
		torus.IsConnected() // graph facts are computed once per graph, not per job
		b.Run(c.name, func(b *testing.B) {
			var steps int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				res, err := core.EstimateRWProbability(torus, 0, c.ell, core.Config{Lazy: true})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Stats.ActiveSteps
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*torus.N()), "B/vertex")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// reportThroughput attaches rounds/sec and messages/sec to a benchmark that
// accumulated engine statistics, giving future PRs a perf trajectory beyond
// ns/op.
func reportThroughput(b *testing.B, rounds, msgs int64) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	b.ReportMetric(float64(rounds)/sec, "rounds/sec")
	b.ReportMetric(float64(msgs)/sec, "msgs/sec")
}

// BenchmarkEngineThroughput drives the round engine with a pure flooding
// workload (every node broadcasts every round) on a 4096-node torus — the
// engine-bound upper envelope, dominated by Send/deliver — at 1 worker and
// at GOMAXPROCS.
func BenchmarkEngineThroughput(b *testing.B) {
	g, err := gen.Torus(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	const horizon = 64
	for _, workers := range []int{1, 0} {
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			var rounds, msgs int64
			for i := 0; i < b.N; i++ {
				// Network construction (bandwidth slots, arenas) is setup, not
				// the round loop this benchmark tracks.
				b.StopTimer()
				net, err := congest.NewNetwork(g, congest.Config{Workers: workers, MaxRounds: horizon + 4})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := net.Run(func(int) congest.Process { return &floodBench{horizon: horizon} })
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(st.Rounds)
				msgs += st.Messages
			}
			reportThroughput(b, rounds, msgs)
		})
	}
}

// floodBench broadcasts every round until its horizon.
type floodBench struct{ horizon int }

func (p *floodBench) Init(ctx *congest.Context) {}
func (p *floodBench) Step(ctx *congest.Context) {
	if ctx.Round() >= p.horizon {
		ctx.Halt()
		return
	}
	ctx.Broadcast(congest.Message{Kind: 1, Value: int64(ctx.Round()), Bits: 16})
}

// BenchmarkPushPull measures the gossip engine per full partial-spreading
// run on the barbell.
func BenchmarkPushPull(b *testing.B) {
	g, err := gen.Barbell(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := spread.Run(g, spread.Config{Beta: 8, Seed: int64(i), StopAtPartial: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleLocalMixing measures the centralized oracle (grid mode).
func BenchmarkOracleLocalMixing(b *testing.B) {
	g, err := gen.Barbell(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exact.LocalMixing(g, 0, 8, bench.PaperEps, exact.LocalOptions{MaxT: 1 << 16, Grid: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphMixingTime measures the all-sources τ_mix(ε) oracle — the
// many-source batched-walk workload of Das Sarma et al. The torus64 case is
// the BENCH trajectory anchor for oracle perf (skipped under -short: it is
// minutes at the pre-kernel serial baseline).
func BenchmarkGraphMixingTime(b *testing.B) {
	for _, c := range []struct {
		name       string
		rows, cols int
	}{
		{"torus32", 32, 32},
		{"torus64", 64, 64},
	} {
		g, err := gen.Torus(c.rows, c.cols)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			if c.rows >= 64 && testing.Short() {
				b.Skip("torus64 takes minutes at the serial baseline; run without -short")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.GraphMixingTime(g, 0.5, true, 1<<14); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalMixingOracle measures a single-source local-mixing oracle
// run (grid mode) on the two workload shapes the paper's experiments lean
// on: a large torus and the ring of cliques.
func BenchmarkLocalMixingOracle(b *testing.B) {
	torus, err := gen.Torus(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	roc, err := gen.RingOfCliques(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"torus64", func() error {
			_, err := exact.LocalMixing(torus, 0, 8, 0.25, exact.LocalOptions{MaxT: 1 << 18, Grid: true, Lazy: true})
			return err
		}},
		{"ringcliques", func() error {
			_, err := exact.LocalMixing(roc, 0, 8, bench.PaperEps, exact.LocalOptions{MaxT: 1 << 16, Grid: true})
			return err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedSweep measures the all-sources distributed
// GraphLocalMixingTime sweep (graph-wide τ(β,ε) via Algorithm 2 from every
// vertex) on the parallel sweep engine. "serial" is the seed path it
// replaced — one core.Run per source, each building a fresh CONGEST
// network — with the same splitmix64-derived per-source seeds, so every
// variant must compute the identical MultiResult; the workersN variants
// track the wall-clock win (≈ linear in cores on multi-core hosts, plus
// the network-construction amortization even on one core). torus16 is the
// heavier anchor, skipped under -short.
func BenchmarkDistributedSweep(b *testing.B) {
	roc, err := gen.RingOfCliques(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	torus, err := gen.Torus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	const base = 1
	cfgFor := func(beta float64) core.Config {
		cfg := core.Config{Mode: core.ApproxLocal, Beta: beta, Eps: bench.PaperEps, Lazy: true, AllowIrregular: true}
		cfg.Engine.Seed = base
		return cfg
	}
	graphs := []struct {
		name  string
		g     *Graph
		beta  float64
		heavy bool
	}{
		{"ringcliques", roc, 4, false},
		{"torus16", torus, 4, true},
	}
	for _, gr := range graphs {
		cfg := cfgFor(gr.beta)
		b.Run(gr.name+"/serial", func(b *testing.B) {
			if gr.heavy && testing.Short() {
				b.Skip("torus16 all-sources serial sweep is slow; run without -short")
			}
			for i := 0; i < b.N; i++ {
				tau := -1
				for s := 0; s < gr.g.N(); s++ {
					runCfg := cfg
					runCfg.Source = s
					runCfg.Engine.Seed = sweep.DeriveSeed(base, s)
					res, err := core.Run(gr.g, runCfg)
					if err != nil {
						b.Fatal(err)
					}
					if res.Tau > tau {
						tau = res.Tau
					}
				}
			}
		})
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers%d", gr.name, workers), func(b *testing.B) {
				if gr.heavy && testing.Short() {
					b.Skip("torus16 all-sources sweep is slow; run without -short")
				}
				for i := 0; i < b.N; i++ {
					pool, err := core.NewSweepPool(gr.g, cfg, workers)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := pool.Sweep(core.SweepOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRandomRegularGen measures the repaired pairing-model generator.
func BenchmarkRandomRegularGen(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := gen.RandomRegular(256, 6, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13CongestSpreading(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14GraphLocalMixing(b *testing.B)    { benchExperiment(b, "E14") }
func BenchmarkE15EngineCounters(b *testing.B)      { benchExperiment(b, "E15") }
func BenchmarkE16OracleKernel(b *testing.B)        { benchExperiment(b, "E16") }
func BenchmarkE18DynamicChurn(b *testing.B)        { benchExperiment(b, "E18") }
func BenchmarkE19AdaptiveAdversaries(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkDynamicWalk measures the dynamic-aware token-walk protocol
// (core.TokenWalk): a 256-step walk by token forwarding, one hop per round,
// on a static torus and under edge-Markov churn at two intensities. The
// rounds/op metric tracks the hop+retry round count (≥ steps; the excess is
// churn-induced restarts), retries/op the edge-loss restarts themselves.
// Like every engine workload, results are worker-count invariant.
func BenchmarkDynamicWalk(b *testing.B) {
	g, err := gen.Torus(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	const steps = 256
	variants := []struct {
		name string
		rate float64
	}{
		{"torus32/static", 0},
		{"torus32/markov05", 0.05},
		{"torus32/markov20", 0.20},
	}
	for _, v := range variants {
		opts := []core.Option{core.WithSeed(1)}
		if v.rate > 0 {
			churn, err := dyngraph.NewEdgeMarkov(g, 7, v.rate, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, core.WithTopology(churn))
		}
		b.Run(v.name, func(b *testing.B) {
			var rounds, retries int64
			for i := 0; i < b.N; i++ {
				res, err := core.TokenWalk(g, 0, steps, opts...)
				if err != nil {
					b.Fatal(err)
				}
				rounds += int64(res.Rounds)
				retries += res.Retries
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
		})
	}
}

// BenchmarkScaleAnchor is the million-node smoke anchor (ROADMAP "Scale
// anchors"): a 1000×1000 torus pushed through the walk kernel and the round
// engine, reporting steady-state heap bytes and rounds/sec (steps/sec for
// the kernel) via ReportMetric, so the CI artifact catches O(n) regressions
// the default graph sizes cannot see. Skipped under -short — the full
// anchor builds a 10⁶-vertex network.
func BenchmarkScaleAnchor(b *testing.B) {
	if testing.Short() {
		b.Skip("million-node scale anchor skipped under -short")
	}
	const side = 1000 // 10⁶ vertices, 2·10⁶ edges
	g, err := gen.Torus(side, side)
	if err != nil {
		b.Fatal(err)
	}

	steadyMB := func(b *testing.B) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/1e6, "heap-MB")
		b.ReportMetric(float64(ms.Sys)/1e6, "sys-MB") // peak footprint incl. freed slabs
	}

	b.Run("kernel", func(b *testing.B) {
		// Dense SpMV passes over a uniform distribution — the O(m) path a
		// regression would hit, not the sparse single-source frontier.
		k := walkkernel.New(g, 0)
		n := g.N()
		src := make([]float64, n)
		dst := make([]float64, n)
		for i := range src {
			src[i] = 1 / float64(n)
		}
		const steps = 8
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := 0; s < steps; s++ {
				k.Apply(dst, src, true)
				src, dst = dst, src
			}
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(steps*b.N)/sec, "steps/sec")
		}
		steadyMB(b)
	})

	b.Run("engine", func(b *testing.B) {
		const ell = 4 // ℓ+1 engine rounds per estimate
		var rounds int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est, err := core.EstimateRWProbability(g, 0, ell, core.Config{Lazy: true})
			if err != nil {
				b.Fatal(err)
			}
			rounds += int64(est.Stats.Rounds)
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(rounds)/sec, "rounds/sec")
		}
		steadyMB(b)
	})
}
