package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/spec"
)

var ringSpec = spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}

func mustRun(t *testing.T, svc *Service, req Request) *Response {
	t.Helper()
	resp, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req.Task, err)
	}
	return resp
}

func TestRunMatchesDirectCalls(t *testing.T) {
	g, err := ringSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{})

	t.Run("oracle-mixing", func(t *testing.T) {
		resp := mustRun(t, svc, Request{Graph: ringSpec,
			Task: spec.TaskSpec{Kind: spec.KindOracleMixing, Eps: 0.1, MaxT: 4000}})
		want, err := exact.MixingTime(g, 0, 0.1, false, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Result.(*TauResult).Tau; got != want {
			t.Fatalf("service τ_mix=%d, direct %d", got, want)
		}
	})

	t.Run("local", func(t *testing.T) {
		resp := mustRun(t, svc, Request{Graph: ringSpec,
			Task: spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 5}})
		want, err := core.ApproxLocalMixingTime(g, 0, 4, 0.05, core.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Result, want) {
			t.Fatalf("service result differs from direct core call:\n  svc  %+v\n  core %+v", resp.Result, want)
		}
	})

	t.Run("estimate-c-and-maxRounds", func(t *testing.T) {
		torus := spec.GraphSpec{Family: "torus", Dim: 8}
		tg, err := torus.Build()
		if err != nil {
			t.Fatal(err)
		}
		task := spec.TaskSpec{Kind: spec.KindEstimate, Lazy: true, Steps: 16, C: 3}
		resp := mustRun(t, svc, Request{Graph: torus, Task: task})
		want, err := core.EstimateRWProbability(tg, 0, 16, core.Config{Lazy: true, C: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Result, want) {
			t.Fatalf("c=3 estimate differs from the direct core call:\n  svc  %+v\n  core %+v", resp.Result, want)
		}
		task.C = 0
		def := mustRun(t, svc, Request{Graph: torus, Task: task})
		if got, dflt := resp.Result.(*core.RWEstimate).Scale, def.Result.(*core.RWEstimate).Scale; got == dflt {
			t.Fatalf("c=3 and c=0 estimates share the scale %+v", got)
		}
		task.MaxRounds = 4
		if _, err := svc.Run(context.Background(), Request{Graph: torus, Task: task}); !errors.Is(err, congest.ErrRoundLimit) {
			t.Fatalf("16-step estimate under maxRounds 4: err = %v, want the round limit", err)
		}
	})

	t.Run("sweep-warm-pool", func(t *testing.T) {
		req := Request{Graph: ringSpec,
			Task: spec.TaskSpec{Kind: spec.KindSweep, Mode: "mixing", Eps: 0.1, Seed: 5, Sample: 4, SweepWorkers: 2}}
		first := mustRun(t, svc, req)
		m0 := svc.Metrics()
		second := mustRun(t, svc, req)
		m1 := svc.Metrics()
		if !reflect.DeepEqual(first.Result, second.Result) {
			t.Fatal("repeated sweep request changed its result")
		}
		if !second.ResultHit || m1.ResultHits != m0.ResultHits+1 {
			t.Fatalf("identical repeat was not a result-cache hit (resultHit=%t, hits %d -> %d)",
				second.ResultHit, m0.ResultHits, m1.ResultHits)
		}
		// A different sample misses the result cache but must reuse the
		// warm pool (pool keys exclude the per-sweep source selection).
		other := req
		other.Task.Sample = 5
		mustRun(t, svc, other)
		m2 := svc.Metrics()
		if m2.PoolBuilds != m0.PoolBuilds {
			t.Fatalf("re-sampled sweep built a new pool (%d -> %d)", m0.PoolBuilds, m2.PoolBuilds)
		}
		if m2.PoolHits != m0.PoolHits+1 {
			t.Fatalf("re-sampled sweep did not hit the warm pool (hits %d -> %d)", m0.PoolHits, m2.PoolHits)
		}
		cfg := core.Config{Mode: core.MixTime, Eps: 0.1}
		cfg.Engine.Seed = 5
		pool, err := core.NewSweepPool(g, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pool.Sweep(core.SweepOptions{Sample: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Result, want) {
			t.Fatal("warm-pool sweep differs from the one-shot core sweep")
		}
	})
}

func TestWarmCacheBuildsNothing(t *testing.T) {
	svc := New(Options{})
	req := Request{Graph: ringSpec,
		Task: spec.TaskSpec{Kind: spec.KindOracleLocal, Beta: 4, Eps: 0.05}}
	first := mustRun(t, svc, req)
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	m0 := svc.Metrics()
	if m0.KernelBuilds != 1 || m0.GraphMisses != 1 {
		t.Fatalf("cold request: kernelBuilds=%d graphMisses=%d, want 1/1", m0.KernelBuilds, m0.GraphMisses)
	}
	// A second oracle kind on the same graph must reuse graph AND kernel.
	second := mustRun(t, svc, Request{Graph: ringSpec,
		Task: spec.TaskSpec{Kind: spec.KindOracleMixing, Eps: 0.1, MaxT: 4000}})
	if !second.CacheHit {
		t.Fatal("second request missed the graph cache")
	}
	m1 := svc.Metrics()
	if m1.KernelBuilds != 1 {
		t.Fatalf("warm request rebuilt the kernel (builds=%d)", m1.KernelBuilds)
	}
	if m1.GraphMisses != 1 || m1.GraphHits < 1 {
		t.Fatalf("warm request missed the graph cache: hits=%d misses=%d", m1.GraphHits, m1.GraphMisses)
	}
	third := mustRun(t, svc, req)
	if !reflect.DeepEqual(first.Result, third.Result) {
		t.Fatal("warm repeat changed the oracle result")
	}
}

func TestGraphCacheConcurrentAccess(t *testing.T) {
	var ctr counters
	c := newGraphCache(4, &ctr)
	gs := spec.GraphSpec{Family: "expander", N: 32, D: 4, Seed: 3}
	const workers = 16
	entries := make([]*cacheEntry, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.get(gs)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent gets returned distinct entries")
		}
	}
	if got := ctr.graphMisses.Load(); got != 1 {
		t.Fatalf("graph built %d times under concurrent access, want 1", got)
	}
	if hits := ctr.graphHits.Load(); hits != workers-1 {
		t.Fatalf("hits=%d, want %d", hits, workers-1)
	}
}

func TestGraphCacheLRUEviction(t *testing.T) {
	var ctr counters
	c := newGraphCache(2, &ctr)
	specs := []spec.GraphSpec{
		{Family: "path", N: 8},
		{Family: "cycle", N: 8},
		{Family: "complete", N: 8},
	}
	for _, gs := range specs {
		if _, _, err := c.get(gs); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	// The oldest (path) was evicted: re-getting it is a miss.
	before := ctr.graphMisses.Load()
	if _, hit, err := c.get(specs[0]); err != nil || hit {
		t.Fatalf("evicted entry reported hit=%t err=%v", hit, err)
	}
	if ctr.graphMisses.Load() != before+1 {
		t.Fatal("evicted entry did not rebuild")
	}
}

func TestAdmissionBound(t *testing.T) {
	const cap = 3
	var cur, peak atomic.Int64
	reg := NewRegistry()
	reg.Register(spec.KindMixing, "slow probe", func(inv *Invocation) (any, error) {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		return &TauResult{Tau: int(inv.Task.Seed)}, nil
	})
	svc := New(Options{Registry: reg, MaxInFlight: cap})
	const burst = 16
	var wg sync.WaitGroup
	results := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Run(context.Background(), Request{
				Graph: spec.GraphSpec{Family: "path", N: 4},
				Task:  spec.TaskSpec{Kind: spec.KindMixing, Seed: int64(i + 1)},
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = resp.Result.(*TauResult).Tau
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("observed %d concurrent runs, admission cap is %d", p, cap)
	}
	if p := svc.Metrics().PeakInFlight; p > cap {
		t.Fatalf("metrics report peak %d > cap %d", p, cap)
	}
	for i, r := range results {
		if r != i+1 {
			t.Fatalf("request %d returned %d: per-request state leaked across the burst", i, r)
		}
	}
}

func TestAdmissionRespectsContext(t *testing.T) {
	block := make(chan struct{})
	reg := NewRegistry()
	reg.Register(spec.KindMixing, "blocker", func(inv *Invocation) (any, error) {
		<-block
		return &TauResult{}, nil
	})
	svc := New(Options{Registry: reg, MaxInFlight: 1})
	req := Request{Graph: spec.GraphSpec{Family: "path", N: 4}, Task: spec.TaskSpec{Kind: spec.KindMixing}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := svc.Run(context.Background(), req); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the first request to occupy the only slot.
	for svc.Metrics().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := svc.Run(ctx, req); err != context.DeadlineExceeded {
		t.Fatalf("queued request returned %v, want context.DeadlineExceeded", err)
	}
	close(block)
	<-done
}

func TestDerivedSeedsAreDeterministic(t *testing.T) {
	req := Request{Graph: ringSpec,
		Task: spec.TaskSpec{Kind: spec.KindWalk, Steps: 12}} // seed omitted
	a := mustRun(t, New(Options{}), req)
	b := mustRun(t, New(Options{}), req)
	if a.Seed == 0 || a.Seed != b.Seed {
		t.Fatalf("derived seeds differ across services: %d vs %d", a.Seed, b.Seed)
	}
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("identical seedless requests returned different results")
	}
	c := mustRun(t, New(Options{BaseSeed: 99}), req)
	if c.Seed == a.Seed {
		t.Fatal("base seed does not influence the derived seed")
	}
	// A different request content must derive a different seed.
	other := req
	other.Task.Steps = 13
	d := mustRun(t, New(Options{}), other)
	if d.Seed == a.Seed {
		t.Fatal("distinct requests derived the same seed")
	}
	// Schedule-only fields must NOT influence the derived seed: results
	// are worker-invariant everywhere, so a seedless request with a
	// different worker count is the same request.
	w2 := req
	w2.Task.Workers, w2.Task.SweepWorkers = 2, 2
	e := mustRun(t, New(Options{}), w2)
	if e.Seed != a.Seed {
		t.Fatalf("worker count changed the derived seed: %d vs %d", e.Seed, a.Seed)
	}
	// Semantic fields must match; Stats carries the documented
	// execution-dependent allocation counters, so it is excluded.
	ra, re := a.Result.(*core.TokenWalkResult), e.Result.(*core.TokenWalkResult)
	if re.End != ra.End || re.Rounds != ra.Rounds || re.Retries != ra.Retries {
		t.Fatalf("worker count changed a seedless request's walk: %+v vs %+v", re, ra)
	}
}

func TestSnapshotChurnReplacesRunGraph(t *testing.T) {
	svc := New(Options{})
	req := Request{Graph: spec.GraphSpec{Family: "cycle", N: 24},
		Task: spec.TaskSpec{Kind: spec.KindWalk, Steps: 8, Seed: 5, Lazy: true,
			Churn: &spec.ChurnSpec{Model: "snapshot", Degree: 3, Snapshots: 2, Every: 4, Seed: 7}}}
	first := mustRun(t, svc, req)
	if first.RunGraph == nil {
		t.Fatal("snapshot churn did not report a run graph")
	}
	if first.RunGraph.N != 24 {
		t.Fatalf("run graph has %d vertices, want 24", first.RunGraph.N)
	}
	m0 := svc.Metrics()
	second := mustRun(t, svc, req)
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatal("repeated snapshot-churn request changed its result")
	}
	if m1 := svc.Metrics(); m1.ChurnBuilds != m0.ChurnBuilds {
		t.Fatalf("repeated request rebuilt the churn model (%d -> %d)", m0.ChurnBuilds, m1.ChurnBuilds)
	}
}

func TestRunValidation(t *testing.T) {
	svc := New(Options{})
	cases := []Request{
		{Graph: spec.GraphSpec{Family: "moebius"}, Task: spec.TaskSpec{Kind: spec.KindMixing}},
		{Graph: ringSpec, Task: spec.TaskSpec{Kind: "teleport"}},
		{Graph: ringSpec, Task: spec.TaskSpec{Kind: "dynamic"}}, // retired: churn is a property of the network
	}
	for _, req := range cases {
		_, err := svc.Run(context.Background(), req)
		if err == nil {
			t.Fatalf("request %+v accepted", req)
		}
		if !isInvalid(err) {
			t.Fatalf("request %+v failed with %v, want ErrInvalidRequest", req, err)
		}
	}
	// Execution failures are not tagged as invalid requests.
	_, err := svc.Run(context.Background(), Request{
		Graph: spec.GraphSpec{Family: "cycle", N: 8}, // even cycle: bipartite
		Task:  spec.TaskSpec{Kind: spec.KindMixing, Seed: 1}})
	if err == nil || isInvalid(err) {
		t.Fatalf("bipartite non-lazy run returned %v, want an untagged execution error", err)
	}
	if m := svc.Metrics(); m.Errors != int64(len(cases))+1 {
		t.Fatalf("error counter %d, want %d", m.Errors, len(cases)+1)
	}
}

func isInvalid(err error) bool { return errors.Is(err, ErrInvalidRequest) }

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(spec.KindMixing, "first", func(*Invocation) (any, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Register(spec.KindMixing, "second", func(*Invocation) (any, error) { return nil, nil })
}

func TestTasksListsEveryBuiltinKind(t *testing.T) {
	svc := New(Options{})
	infos := svc.Tasks()
	if len(infos) != len(spec.Kinds()) {
		t.Fatalf("registry lists %d kinds, spec declares %d", len(infos), len(spec.Kinds()))
	}
	seen := map[spec.Kind]bool{}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("kind %s has no description", info.Kind)
		}
		seen[info.Kind] = true
	}
	for _, k := range spec.Kinds() {
		if !seen[k] {
			t.Errorf("kind %s not registered", k)
		}
	}
}

// TestSweepDefaultModeOneSpelling: a sweep's default mode may be left empty
// or spelled "approx". Both spellings are one request: one derived seed,
// one result, one result-cache entry.
func TestSweepDefaultModeOneSpelling(t *testing.T) {
	svc := New(Options{})
	req := Request{Graph: ringSpec, Task: spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.1, Sample: 3}}
	plain := mustRun(t, svc, req)
	req.Task.Mode = "approx"
	spelled := mustRun(t, svc, req)
	if spelled.Seed != plain.Seed {
		t.Fatalf("mode \"approx\" derived seed %d, mode \"\" derived %d", spelled.Seed, plain.Seed)
	}
	if !reflect.DeepEqual(spelled.Result, plain.Result) {
		t.Fatal("the two spellings of the default sweep mode computed different results")
	}
	if !spelled.ResultHit {
		t.Fatal("mode \"approx\" missed the result cache entry of mode \"\"")
	}
}

// TestUnreadFieldsChangeNothing: for every kind, each field that
// spec.WithoutUnread zeroes is set to a non-zero value. The request must
// derive the same seed and hit the same result-cache entry, and the kind's
// runner, handed the field directly, must compute the same result — so the
// field really is unread.
func TestUnreadFieldsChangeNothing(t *testing.T) {
	svc := New(Options{})
	g, _, err := svc.Graph(ringSpec)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[spec.Kind]spec.TaskSpec{
		spec.KindOracleMixing:      {Eps: 0.1},
		spec.KindOracleLocal:       {Beta: 4, Eps: 0.1},
		spec.KindOracleGraphMixing: {Eps: 0.1},
		spec.KindOracleGraphLocal:  {Beta: 4, Eps: 0.1},
		spec.KindMixing:            {Eps: 0.1},
		spec.KindLocal:             {Beta: 4, Eps: 0.1},
		spec.KindSweep:             {Beta: 4, Eps: 0.1, Sample: 3},
		spec.KindWalk:              {Steps: 16},
		spec.KindEstimate:          {Steps: 8},
		spec.KindSpread:            {Beta: 4},
		spec.KindLeader:            {},
		spec.KindCoverage:          {Beta: 4, Coverage: &spec.CoverageSpec{Universe: 50, PerNode: 4, K: 3, Seed: 9}},
	}
	probe := reflect.ValueOf(spec.TaskSpec{
		Source: 3, Beta: 2, Eps: 0.2, Lazy: true, MaxT: 77, FullScan: true, Steps: 5,
		RetryBudget: 2, Sources: []int{1, 2}, Sample: 2, Irregular: true, C: 3, MaxLength: 40,
		MaxRounds: 123456, TieBreakBits: 2, StopAtPartial: true, FixedRounds: 3,
		Transport: "congest", Coverage: &spec.CoverageSpec{Universe: 10, PerNode: 2, K: 1, Seed: 4},
	})
	set := func(task *spec.TaskSpec, i int) { reflect.ValueOf(task).Elem().Field(i).Set(probe.Field(i)) }
	for _, kind := range spec.Kinds() {
		base := bases[kind]
		base.Kind = kind
		ref := mustRun(t, svc, Request{Graph: ringSpec, Task: base})
		normalized := svc.normalize(Request{Graph: ringSpec, Task: base}, g.N())
		run, _ := svc.reg.Runner(kind)
		zeroed := 0
		for i := 0; i < probe.NumField(); i++ {
			if probe.Field(i).IsZero() {
				continue
			}
			task := base
			set(&task, i)
			if !reflect.DeepEqual(task.WithoutUnread(), base.WithoutUnread()) {
				continue // the kind reads this field
			}
			zeroed++
			name := probe.Type().Field(i).Name
			resp := mustRun(t, svc, Request{Graph: ringSpec, Task: task})
			if resp.Seed != ref.Seed || !resp.ResultHit || !reflect.DeepEqual(resp.Result, ref.Result) {
				t.Errorf("%s with %s set: seed %d (want %d), result hit %v, same result %v",
					kind, name, resp.Seed, ref.Seed, resp.ResultHit, reflect.DeepEqual(resp.Result, ref.Result))
			}
			direct := normalized
			set(&direct, i)
			res, err := run(&Invocation{Env: DirectEnv(g), Task: direct})
			if err != nil || !reflect.DeepEqual(res, ref.Result) {
				t.Errorf("%s runner reads %s: err %v, same result %v", kind, name, err, reflect.DeepEqual(res, ref.Result))
			}
		}
		if zeroed == 0 {
			t.Errorf("%s: no field zeroed", kind)
		}
	}
}

// TestWalkIgnoresBetaAndEps: β and ε pick nothing in a token walk, so the
// three requests below are one request — one endpoint, one cache entry.
func TestWalkIgnoresBetaAndEps(t *testing.T) {
	svc := New(Options{})
	gs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 6}
	tasks := []spec.TaskSpec{
		{Kind: spec.KindWalk, Steps: 16},
		{Kind: spec.KindWalk, Steps: 16, Beta: 4},
		{Kind: spec.KindWalk, Steps: 16, Beta: 4, Eps: 0.2},
	}
	first := mustRun(t, svc, Request{Graph: gs, Task: tasks[0]})
	end := first.Result.(*core.TokenWalkResult).End
	for _, task := range tasks[1:] {
		resp := mustRun(t, svc, Request{Graph: gs, Task: task})
		if got := resp.Result.(*core.TokenWalkResult).End; got != end || resp.Seed != first.Seed || !resp.ResultHit {
			t.Errorf("%+v: endpoint %d (want %d), seed %d (want %d), result hit %v",
				task, got, end, resp.Seed, first.Seed, resp.ResultHit)
		}
	}
}
