package main

import (
	"context"
	"errors"
	"time"

	"repro/internal/congest/frame"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/walkkernel"
)

// errNoDirect marks job classes with no direct layer call the benchmark may
// make (spread runs only through service.Run).
var errNoDirect = errors.New("no direct layer call for this class")

// direct computes requests by calling the layer entry points the service's
// runners wrap, with its own graphs, kernels and sweep pools. Its answers
// must DeepEqual service.Run's: the facade-equivalence contract.
type direct struct {
	tr      *Tracer
	graphs  map[string]*graph.Graph
	kernels map[string]*walkkernel.Kernel
	pools   map[string]*core.SweepPool
}

func newDirect(tr *Tracer) *direct {
	return &direct{tr: tr, graphs: map[string]*graph.Graph{},
		kernels: map[string]*walkkernel.Kernel{}, pools: map[string]*core.SweepPool{}}
}

// graph builds (once) the graph of gs.
func (d *direct) graph(gs spec.GraphSpec, parent, req int64) (*graph.Graph, error) {
	key := gs.Key()
	if g, ok := d.graphs[key]; ok {
		return g, nil
	}
	sp := d.tr.begin("GraphSpec.Build", parent, req)
	g, err := gs.Build()
	sp.end()
	if err != nil {
		return nil, err
	}
	d.graphs[key] = g
	return g, nil
}

// kernel builds (once) the walk kernel of gs.
func (d *direct) kernel(gs spec.GraphSpec, g *graph.Graph, parent, req int64) (*walkkernel.Kernel, error) {
	key := gs.Key()
	if k, ok := d.kernels[key]; ok {
		return k, nil
	}
	sp := d.tr.begin("exact.NewKernel", parent, req)
	k, err := exact.NewKernel(g, 0)
	sp.end()
	if err != nil {
		return nil, err
	}
	d.kernels[key] = k
	return k, nil
}

// options renders the engine options service.Run derives from t.
func options(t spec.TaskSpec) []core.Option {
	o := []core.Option{core.WithSeed(t.Seed)}
	if t.Lazy {
		o = append(o, core.WithLazy())
	}
	if t.Irregular {
		o = append(o, core.WithIrregular())
	}
	return o
}

// run computes req directly and returns the result with the name of the
// entry point it called; the call's span is a child of parent.
func (d *direct) run(req service.Request, parent, id int64) (any, string, error) {
	t := req.Task
	g, err := d.graph(req.Graph, parent, id)
	if err != nil {
		return nil, "", err
	}
	eps := spec.DefaultEps // service.Run's default for a zero Eps
	maxT := 8 * g.N() * g.N()
	var name string
	var res any
	switch t.Kind {
	case spec.KindLocal:
		name = "core.ApproxLocalMixingTime"
		sp := d.tr.begin(name, parent, id)
		res, err = core.ApproxLocalMixingTime(g, t.Source, t.Beta, eps, options(t)...)
		sp.end()
	case spec.KindMixing:
		name = "core.MixingTime"
		sp := d.tr.begin(name, parent, id)
		res, err = core.MixingTime(g, t.Source, eps, options(t)...)
		sp.end()
	case spec.KindWalk:
		name = "core.TokenWalk"
		sp := d.tr.begin(name, parent, id)
		res, err = core.TokenWalk(g, t.Source, t.Steps, options(t)...)
		sp.end()
	case spec.KindEstimate:
		name = "core.EstimateRWProbability"
		sp := d.tr.begin(name, parent, id)
		res, err = core.EstimateRWProbability(g, t.Source, t.Steps, core.Config{Lazy: t.Lazy})
		sp.end()
	case spec.KindSweep:
		name = "SweepPool.Sweep"
		key := req.Graph.Key()
		pool, ok := d.pools[key]
		if !ok {
			cfg := core.Config{Mode: core.ApproxLocal, Beta: t.Beta, Eps: eps}
			for _, o := range options(t) {
				o(&cfg)
			}
			sp := d.tr.begin("core.NewSweepPool", parent, id)
			pool, err = core.NewSweepPool(g, cfg, 0)
			sp.end()
			if err != nil {
				return nil, name, err
			}
			d.pools[key] = pool
		}
		sp := d.tr.begin(name, parent, id)
		res, err = pool.Sweep(core.SweepOptions{Sources: t.Sources})
		sp.end()
	case spec.KindOracleMixing:
		k, kerr := d.kernel(req.Graph, g, parent, id)
		if kerr != nil {
			return nil, "", kerr
		}
		name = "exact.MixingTimeKernel"
		sp := d.tr.begin(name, parent, id)
		var tau int
		tau, err = exact.MixingTimeKernel(context.Background(), g, k, t.Source, eps, t.Lazy, maxT)
		sp.end()
		res = &service.TauResult{Tau: tau}
	case spec.KindOracleLocal:
		k, kerr := d.kernel(req.Graph, g, parent, id)
		if kerr != nil {
			return nil, "", kerr
		}
		name = "exact.LocalMixingKernel"
		sp := d.tr.begin(name, parent, id)
		res, err = exact.LocalMixingKernel(context.Background(), g, k, t.Source, t.Beta, eps,
			exact.LocalOptions{Lazy: t.Lazy, MaxT: maxT, Grid: true})
		sp.end()
	default:
		return nil, "", errNoDirect
	}
	return res, name, err
}

// frameThroughput times frame.Append and frame.Decode on frames of recs
// records for about budget each and returns MB/s for both.
func frameThroughput(recs int, budget time.Duration) (encMBs, decMBs float64) {
	rs := make([]frame.Record, max(recs, 1))
	for i := range rs {
		rs[i] = frame.Record{To: int32(i), From: int32(i + 1), Seq: int32(i), Value: int64(i) << 20, Aux: 3, Bits: 64, Kind: 2}
	}
	buf := frame.Append(nil, 1, 0, rs)
	size := float64(len(buf))
	n, start := 0, time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 64; i++ {
			buf = frame.Append(buf[:0], i, 0, rs)
		}
		n += 64
	}
	encMBs = size * float64(n) / time.Since(start).Seconds() / 1e6
	out := make([]frame.Record, 0, len(rs))
	n, start = 0, time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 64; i++ {
			var err error
			if _, _, out, _, err = frame.Decode(buf, out[:0]); err != nil {
				return encMBs, 0
			}
		}
		n += 64
	}
	decMBs = size * float64(n) / time.Since(start).Seconds() / 1e6
	return encMBs, decMBs
}
