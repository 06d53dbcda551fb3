package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/service"
	"repro/internal/spec"
)

// solveClasses is the solve cycle: 37 jobs whose latencies sort so that the
// twelve local-rc48 jobs (positions 13–24) hold the median and the one
// 16-source sweep, at about twice the next slowest class, holds p99.
var solveClasses = []classWeight{
	{clsOracleLoc, 3}, {clsSpread, 3}, {clsLocal816, 6}, {clsLocal48, 12}, {clsWalk, 3},
	{clsEstimate1e, 3}, {clsOracleMix, 3}, {clsMixing, 3}, {clsSweep16, 1},
}

var solveGraphs = []spec.GraphSpec{gRing816, gRing48, gBarbell, gTorus32, gTorus100}

// solveDirectEvery: in traced runs every 8th job (8 is coprime with the
// 37-job cycle, so every class is sampled) is also computed by a direct
// layer call, which must DeepEqual the service.Run result.
const solveDirectEvery = 8

// startSolve builds the in-process service and warms it: graphs
// built, kernels and pools made, one job of each class run.
func startSolve(ctx context.Context, rng *rand.Rand, tr *Tracer) (*service.Service, error) {
	svc := service.New(service.Options{})
	for _, gs := range solveGraphs {
		sp := tr.begin("Service.Graph", 0, 0)
		_, _, err := svc.Graph(gs)
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	for _, cw := range solveClasses {
		if _, err := svc.Run(ctx, request(cw.class, newSeed(rng), rng)); err != nil {
			return nil, fmt.Errorf("solve set-up %s: %w", cw.class, err)
		}
	}
	return svc, nil
}

// engineTally sums the engine counters of completed jobs.
type engineTally struct {
	jobs                               int
	time                               time.Duration
	rounds, msgs, active, skips, grows int64
}

func (e *engineTally) add(st *congest.Stats, d time.Duration) {
	e.jobs++
	e.time += d
	e.rounds += int64(st.Rounds)
	e.msgs += st.Messages
	e.active += st.ActiveSteps
	e.skips += st.SleepSkips
	e.grows += st.StepGrows + st.DeliverGrows
}

// engineStats returns the engine counters a result carries (nil for the
// oracles and spread, which do not run the engine).
func engineStats(res any) []*congest.Stats {
	switch r := res.(type) {
	case *core.Result:
		return []*congest.Stats{r.Stats}
	case *core.TokenWalkResult:
		return []*congest.Stats{r.Stats}
	case *core.RWEstimate:
		return []*congest.Stats{r.Stats}
	case *core.MultiResult:
		out := make([]*congest.Stats, len(r.Results))
		for i, x := range r.Results {
			out[i] = x.Stats
		}
		return out
	}
	return nil
}

func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runSolve(ctx context.Context, c runCfg) (*outcome, error) {
	setupRng := rand.New(rand.NewSource(c.seed ^ 0x5e7))
	var (
		svc  *service.Service
		loop loopStats
	)
	for i := 0; i < c.setups; i++ {
		st, err := timeSetup(func() (err error) {
			svc, err = startSolve(ctx, setupRng, c.tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		loop.setups = append(loop.setups, st)
	}

	seq := newSequence(c.seed, solveClasses)
	dir := newDirect(c.tr)
	type done struct {
		cls    string
		req    service.Request
		res    any
		sample int // index in loop.samples
	}
	var (
		firstCycle        []done
		all, first        engineTally
		classMS           = map[string][]float64{}
		directMS          = map[string][]float64{}
		overheadUS        []float64
		oracleVertexSteps float64
		oracleTime        time.Duration
		sweepSources      int
		sweepTime         time.Duration
		o                 = &outcome{}
		ms0, ms1          runtime.MemStats
	)
	m0 := svc.Metrics()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSelf()
	start := time.Now()
	meter := startSteal(start, []string{"self"}, nil)
	// The first cycle always completes: the deterministic per-job counts of
	// traced runs are taken over it.
	for (time.Since(start) < c.window || seq.next < len(seq.cycle)) && ctx.Err() == nil {
		cls, req := seq.job()
		id := int64(seq.next)
		root := c.tr.begin("job "+cls, 0, id)
		sp := c.tr.begin("service.Run", root.id, id)
		t0 := time.Now()
		resp, err := svc.Run(ctx, req)
		lat := time.Since(t0)
		sp.end()
		o.attempted++
		fail := ""
		if err != nil {
			fail = err.Error()
		} else if resp.Result == nil || resp.ResultHit {
			fail = "no fresh result"
		}
		if fail == "" && c.tr != nil && id%solveDirectEvery == 0 {
			dt0 := time.Now()
			got, name, derr := dir.run(req, root.id, id)
			dd := time.Since(dt0)
			switch {
			case derr == errNoDirect:
			case derr != nil:
				fail = "direct layer call failed: " + derr.Error()
			case !reflect.DeepEqual(got, resp.Result):
				fail = name + " result differs from service.Run"
			default:
				directMS[name] = append(directMS[name], dd.Seconds()*1e3)
				overheadUS = append(overheadUS, (lat-dd).Seconds()*1e6)
				switch r := got.(type) {
				case *service.TauResult:
					if name == "exact.MixingTimeKernel" {
						oracleVertexSteps += float64(r.Tau) * 1024 // torus32: n = 1024
						oracleTime += dd
					}
				case *core.MultiResult:
					sweepSources += len(r.Sources)
					sweepTime += dd
				}
			}
		}
		root.end()
		if fail != "" {
			o.failed++
			if o.failed <= 5 {
				fmt.Printf("solve: job %d (%s) failed: %s\n", id, cls, fail)
			}
			continue
		}
		loop.samples = append(loop.samples, sample{at: time.Since(start), lat: lat, good: true})
		classMS[cls] = append(classMS[cls], lat.Seconds()*1e3)
		sts := engineStats(resp.Result)
		for _, st := range sts {
			all.add(st, lat/time.Duration(len(sts)))
			if int(id) <= len(seq.cycle) {
				first.add(st, 0)
			}
		}
		if int(id) <= len(seq.cycle) {
			firstCycle = append(firstCycle, done{cls, req, resp.Result, len(loop.samples) - 1})
		}
	}
	loop.elapsed = time.Since(start)
	loop.steal = meter.finish(start, c.window)
	loop.sliceHWM = meter.sliceHWM()
	loop.cpu = cpuSelf() - cpu0
	runtime.ReadMemStats(&ms1)
	m1 := svc.Metrics()
	var err error
	if loop.hwm, err = procHWM("self"); err != nil {
		return nil, err
	}

	// Every run checks the first cycle against direct layer calls (spread,
	// which has none the benchmark may make, against a second service).
	check := newDirect(nil)
	fresh := service.New(service.Options{})
	for _, d := range firstCycle {
		got, _, err := check.run(d.req, 0, 0)
		if err == errNoDirect {
			var resp *service.Response
			if resp, err = fresh.Run(ctx, d.req); err == nil {
				got = resp.Result
			}
		}
		if err != nil || !reflect.DeepEqual(got, d.res) {
			o.failed++
			loop.samples[d.sample].good = false
			fmt.Printf("solve: %s result differs from the direct layer call (err=%v)\n", d.cls, err)
		}
	}
	o.loop = loop
	if c.tr == nil {
		return o, nil
	}

	m := metrics{}
	jobs := float64(len(loop.samples))
	m.set("service.overhead_us", "us", median(overheadUS))
	m.set("service.pool_hit_ratio", "ratio", ratio(float64(m1.PoolHits-m0.PoolHits), float64(m1.PoolHits-m0.PoolHits+m1.PoolBuilds-m0.PoolBuilds)))
	m.set("core.local_ms", "ms", median(directMS["core.ApproxLocalMixingTime"]))
	m.set("core.mixing_ms", "ms", median(directMS["core.MixingTime"]))
	m.set("core.walk_ms", "ms", median(directMS["core.TokenWalk"]))
	m.set("core.estimate_ms", "ms", median(directMS["core.EstimateRWProbability"]))
	m.set("exact.oracle_ms.mixing", "ms", median(directMS["exact.MixingTimeKernel"]))
	m.set("exact.oracle_ms.local", "ms", median(directMS["exact.LocalMixingKernel"]))
	m.set("walkkernel.vertex_steps_per_s", "1/s", ratio(oracleVertexSteps, oracleTime.Seconds()))
	m.set("sweep.sources_per_s", "1/s", ratio(float64(sweepSources), sweepTime.Seconds()))
	m.set("spread.ms", "ms", median(classMS[clsSpread]))
	m.set("congest.rounds_per_s", "1/s", ratio(float64(all.rounds), all.time.Seconds()))
	m.set("congest.msgs_per_s", "1/s", ratio(float64(all.msgs), all.time.Seconds()))
	m.set("congest.ns_per_active_step", "ns", ratio(float64(all.time.Nanoseconds()), float64(all.active)))
	m.set("congest.sleep_skip_ratio", "ratio", ratio(float64(all.skips), float64(all.skips+all.active)))
	m.set("congest.grows_per_job", "count", ratio(float64(all.grows), float64(all.jobs)))
	m.set("congest.rounds_per_job", "count", ratio(float64(first.rounds), float64(first.jobs)))
	m.set("congest.msgs_per_job", "count", ratio(float64(first.msgs), float64(first.jobs)))
	m.set("runtime.gc_per_job", "count", ratio(float64(ms1.NumGC-ms0.NumGC), jobs))
	m.set("runtime.alloc_kb_per_job", "KiB", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, jobs))
	probeSolveLayers(m, c.seed, c.tr)
	o.layers = m
	return o, nil
}

// probeSolveLayers times set-up work and the default worker count with
// direct layer calls after the window.
func probeSolveLayers(m metrics, seed int64, tr *Tracer) {
	buildMS, resident := buildGraphs(solveGraphs, tr)
	m.set("graph.build_ms", "ms", buildMS)
	m.set("graph.resident_mb", "MiB", resident)

	var kernMS, poolMS []float64
	if g, err := gTorus32.Build(); err == nil {
		for rep := 0; rep < 5; rep++ {
			sp := tr.begin("exact.NewKernel", 0, 0)
			_, err := exact.NewKernel(g, 0)
			if d := sp.end(); err == nil {
				kernMS = append(kernMS, d.Seconds()*1e3)
			}
		}
	}
	if g, err := gRing48.Build(); err == nil {
		t := request(clsSweep, seed, rand.New(rand.NewSource(seed))).Task
		cfg := core.Config{Mode: core.ApproxLocal, Beta: t.Beta, Eps: spec.DefaultEps}
		for _, o := range options(t) {
			o(&cfg)
		}
		for rep := 0; rep < 5; rep++ {
			sp := tr.begin("core.NewSweepPool", 0, 0)
			_, err := core.NewSweepPool(g, cfg, 0)
			if d := sp.end(); err == nil {
				poolMS = append(poolMS, d.Seconds()*1e3)
			}
		}
	}
	m.set("walkkernel.build_ms", "ms", median(kernMS))
	m.set("sweep.pool_build_ms", "ms", median(poolMS))

	// The same local-rc48 job at the default worker count and at Workers: 1,
	// alternated; the ratio is default time over Workers: 1 time.
	g, err := gRing48.Build()
	if err != nil {
		return
	}
	var def, one []float64
	for rep := 0; rep < 9; rep++ {
		for _, w := range []int{0, 1} {
			opts := []core.Option{core.WithSeed(seed), core.WithIrregular()}
			if w == 1 {
				opts = append(opts, core.WithWorkers(1))
			}
			sp := tr.begin(fmt.Sprintf("core.ApproxLocalMixingTime workers=%d", w), 0, 0)
			_, err := core.ApproxLocalMixingTime(g, 0, 4, spec.DefaultEps, opts...)
			ms := sp.end().Seconds() * 1e3
			if err != nil {
				continue
			}
			if w == 1 {
				one = append(one, ms)
			} else {
				def = append(def, ms)
			}
		}
	}
	m.set("congest.workers1_speedup", "ratio", ratio(median(def), median(one)))
}
