package bench

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sweep"
)

// E17DistributedSweep measures the parallel multi-source sweep engine
// against the serial per-source loop it replaced: the graph-wide
// τ(β,ε) = max_v τ_v(β,ε) of Definition 2 computed (a) as n sequential
// core.Run calls, each building a fresh CONGEST network (the pre-sweep
// formulation), and (b) on the internal/sweep worker pool, where each
// worker reuses one network across its sources. Both paths use the same
// splitmix64-derived per-source seeds, so the computed τ must agree
// exactly; the speedup column and the aggregate round/message/bit
// accounting (the paper's footnote-6 n-factor cost, made visible) are the
// point.
func E17DistributedSweep(sc Scale) (*Table, error) {
	type work struct {
		name string
		g    *graph.Graph
		beta float64
	}
	var works []work
	add := func(g *graph.Graph, err error, beta float64) error {
		if err != nil {
			return err
		}
		works = append(works, work{g.Name(), g, beta})
		return nil
	}
	cliques, cliqueSize := 4, 6
	torusSide := 8
	if sc == Full {
		cliques, cliqueSize = 6, 8
		torusSide = 12
	}
	rg, err := gen.RingOfCliques(cliques, cliqueSize)
	if err := add(rg, err, float64(cliques)); err != nil {
		return nil, err
	}
	tg, err := gen.Torus(torusSide, torusSide)
	if err := add(tg, err, 4); err != nil {
		return nil, err
	}

	workers := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:    "E17",
		Title: "distributed multi-source sweep: worker pool vs serial per-source runs",
		Note: "graph-wide τ(β,ε)=max_v τ_v via Algorithm 2 from every source; serial = fresh network per source, " +
			"sweep = reusable per-worker networks (identical derived seeds, identical results required)",
		Header: []string{"graph", "n", "workers", "tau", "argmax", "serial_ms", "sweep_ms", "speedup", "Mrounds", "Mmsgs", "Gbits"},
	}
	for _, w := range works {
		const base = 1
		cfg := core.Config{Mode: core.ApproxLocal, Beta: w.beta, Eps: PaperEps, Lazy: true, AllowIrregular: true}
		cfg.Engine.Seed = base

		serialStart := time.Now()
		serialTau := -1
		for s := 0; s < w.g.N(); s++ {
			runCfg := cfg
			runCfg.Source = s
			runCfg.Engine.Seed = sweep.DeriveSeed(base, s)
			res, err := core.Run(w.g, runCfg)
			if err != nil {
				return nil, err
			}
			if res.Tau > serialTau {
				serialTau = res.Tau
			}
		}
		serial := time.Since(serialStart)

		sweepStart := time.Now()
		pool, err := core.NewSweepPool(w.g, cfg, workers)
		if err != nil {
			return nil, err
		}
		multi, err := pool.Sweep(core.SweepOptions{})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(sweepStart)
		if multi.Tau != serialTau {
			t.Note += "; MISMATCH between serial and sweep τ!"
		}
		t.Add(w.name, w.g.N(), workers, multi.Tau, multi.ArgMax,
			float64(serial.Microseconds())/1000,
			float64(elapsed.Microseconds())/1000,
			float64(serial.Nanoseconds())/float64(elapsed.Nanoseconds()),
			float64(multi.TotalRounds)/1e6,
			float64(multi.TotalMessages)/1e6,
			float64(multi.TotalBits)/1e9)
	}
	return t, nil
}
