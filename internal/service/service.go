package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// ErrInvalidRequest tags request-shape failures (unknown family or kind,
// cross-field spec violations) so transports can map them to 400-class
// statuses; execution failures are returned unwrapped.
var ErrInvalidRequest = errors.New("service: invalid request")

// Request is one unit of work: which graph, which computation.
type Request struct {
	// Graph names the generated graph.
	Graph spec.GraphSpec `json:"graph"`
	// Task names the computation over it.
	Task spec.TaskSpec `json:"task"`
}

// GraphInfo describes a built graph in a Response.
type GraphInfo struct {
	// Key is the canonical cache key.
	Key string `json:"key"`
	// Name is the generator's graph name.
	Name string `json:"name"`
	// N and M are the vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
}

// Response reports a completed run.
type Response struct {
	// Kind echoes the task kind.
	Kind spec.Kind `json:"kind"`
	// Graph describes the cached spec graph.
	Graph GraphInfo `json:"graph"`
	// RunGraph is set when the run executed on a different graph than the
	// spec'd one — today only for snapshot churn, which replaces the graph
	// by the rotating-sample superset.
	RunGraph *GraphInfo `json:"runGraph,omitempty"`
	// CacheHit reports whether the graph came from the cache.
	CacheHit bool `json:"cacheHit"`
	// ResultHit reports that the whole response was served from the result
	// cache: no graph build, no kernel, no runner invocation — two map
	// lookups.
	ResultHit bool `json:"resultHit"`
	// Shared reports that this request waited on an identical in-flight
	// computation (singleflight) instead of running its own.
	Shared bool `json:"shared,omitempty"`
	// Seed is the effective task seed (the request's, or the per-request
	// derived one when the request omitted it).
	Seed int64 `json:"seed"`
	// Result is the kind's concrete result (see the registry
	// descriptions); over HTTP it is the kind's JSON object.
	Result any `json:"result"`
}

// Options configures a Service.
type Options struct {
	// CacheSize bounds the graph cache (entries; ≤ 0 means 16).
	CacheSize int
	// ResultCacheSize bounds the response memoization cache (entries;
	// ≤ 0 means 256).
	ResultCacheSize int
	// MaxInFlight bounds concurrently executing requests; further
	// requests queue on the admission semaphore (≤ 0 means
	// max(8, GOMAXPROCS)).
	MaxInFlight int
	// MaxQueued bounds the requests waiting at admission while every
	// execution slot is busy; past it, new requests are shed immediately
	// with ErrOverloaded instead of queueing — a fast failure the client
	// can back off and retry, rather than a slow one that ties up its
	// deadline budget. ≤ 0 (the default) keeps the unbounded legacy queue.
	MaxQueued int
	// BaseSeed feeds the per-request seed derivation for requests that
	// omit a task seed (0 means 1).
	BaseSeed int64
	// Registry resolves task kinds (nil means Default()).
	Registry *Registry
	// Fault, when non-nil, injects chaos (panics, errors, latency) into
	// every runner invocation — test and soak harness use only.
	Fault *FaultInjector
	// Cluster, when non-nil, executes tasks that carry a ClusterSpec on an
	// attached peer cluster (cmd/lmtd wires the internal/cluster
	// coordinator here). Requests without the spec field never touch it.
	Cluster ClusterRunner
}

// ClusterRunner executes one task across a set of registered peer
// processes; *cluster.Coordinator implements it. The cluster determinism
// contract requires Run to return exactly what the in-process runner for
// the kind would return with the same seed (modulo the execution-artifact
// stats counters), which is what lets the service treat TaskSpec.Cluster as
// schedule-only.
type ClusterRunner interface {
	// Peers reports how many peers are currently registered.
	Peers() int
	// Run executes the task over the graph on the cluster.
	Run(ctx context.Context, gs spec.GraphSpec, ts spec.TaskSpec) (any, error)
}

// Service is the long-running job layer: a registry, a graph cache, and an
// admission controller behind one Run entry point. Safe for concurrent
// use.
type Service struct {
	opts    Options
	reg     *Registry
	cache   *GraphCache
	results *ResultCache
	sem     chan struct{}
	ctr     counters
}

// New builds a Service.
func New(o Options) *Service {
	if o.CacheSize <= 0 {
		o.CacheSize = 16
	}
	if o.ResultCacheSize <= 0 {
		o.ResultCacheSize = 256
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
		if o.MaxInFlight < 8 {
			o.MaxInFlight = 8
		}
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Registry == nil {
		o.Registry = Default()
	}
	s := &Service{opts: o, reg: o.Registry, sem: make(chan struct{}, o.MaxInFlight)}
	s.cache = newGraphCache(o.CacheSize, &s.ctr)
	s.results = newResultCache(o.ResultCacheSize, &s.ctr)
	return s
}

// MaxInFlight reports the admission cap.
func (s *Service) MaxInFlight() int { return cap(s.sem) }

// Tasks lists the registered task kinds.
func (s *Service) Tasks() []TaskInfo { return s.reg.Tasks() }

// Graph builds (or fetches) the spec'd graph through the cache, reporting
// whether it was already cached — the CLI uses it to print the header once
// and still get a cache hit on the following Run.
func (s *Service) Graph(gs spec.GraphSpec) (*graph.Graph, bool, error) {
	if err := gs.Validate(); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	e, hit, err := s.cache.get(gs)
	if err != nil {
		return nil, hit, err
	}
	return e.g, hit, nil
}

// Run executes one request: validate, serve from the result cache when an
// identical request already completed (or share an identical in-flight
// computation), otherwise admit, resolve the graph through the cache,
// normalize the task (defaults and the per-request derived seed), resolve
// churn, and dispatch to the kind's runner — memoizing the response under
// the canonical request key on success. A task deadline (Task.DeadlineMS)
// bounds the whole call, admission queueing included, via the context.
// Results are byte-identical to the corresponding direct facade call; see
// the package documentation for the contract.
func (s *Service) Run(ctx context.Context, req Request) (*Response, error) {
	s.ctr.requests.Add(1)
	resp, err := s.run(ctx, req)
	if err != nil {
		s.ctr.errors.Add(1)
		return nil, err
	}
	return resp, nil
}

// run is Run without the request/error accounting.
func (s *Service) run(ctx context.Context, req Request) (*Response, error) {
	if err := req.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	if err := req.Task.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	run, ok := s.reg.Runner(req.Task.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: unregistered task kind %q", ErrInvalidRequest, req.Task.Kind)
	}
	if d := req.Task.Deadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// Fast path: with a warm graph entry the canonical result key resolves
	// without building anything, and a memoized response (or an identical
	// in-flight computation to wait on) is served without taking an
	// admission slot — the near-free path a million identical curls ride.
	if entry, ok := s.cache.peek(req.Graph.Key()); ok && entry.err == nil {
		task := s.normalize(req, entry.g.N())
		key := resultKey(entry.key, task)
		if cr, ok := s.results.lookup(key); ok {
			s.ctr.graphHits.Add(1)
			return servedResponse(entry, task, cr, true, false), nil
		}
		if f, ok := s.results.join(key); ok {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err == nil {
				s.ctr.graphHits.Add(1)
				return servedResponse(entry, task, f.val, false, true), nil
			}
			if errors.Is(f.err, ErrRunnerPanic) {
				// Deterministic request, crashed leader: recomputing would
				// crash identically. Fail with the leader's tagged error.
				return nil, f.err
			}
			// The leader failed (possibly on its own deadline); fall through
			// and compute under our own admission slot and context.
		}
	}

	// Admission: at most MaxInFlight requests execute; the rest wait here
	// until a slot frees, the caller gives up, or the bounded wait queue
	// overflows and the request is shed.
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer func() { <-s.sem }()
	in := s.ctr.inFlight.Add(1)
	defer s.ctr.inFlight.Add(-1)
	for {
		peak := s.ctr.peakInFlight.Load()
		if in <= peak || s.ctr.peakInFlight.CompareAndSwap(peak, in) {
			break
		}
	}

	return s.execute(ctx, run, req)
}

// admit acquires an execution slot. When every slot is busy the request
// queues; with Options.MaxQueued set, a full queue sheds the request
// immediately with ErrOverloaded instead — load the service cannot serve
// within a useful latency is refused at the door, where it is cheapest.
func (s *Service) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil // a free slot: no queueing at all
	default:
	}
	if m := s.opts.MaxQueued; m > 0 {
		if q := s.ctr.queued.Add(1); q > int64(m) {
			s.ctr.queued.Add(-1)
			s.ctr.shedRequests.Add(1)
			return fmt.Errorf("%w: %d requests executing and %d queued", ErrOverloaded, cap(s.sem), m)
		}
		defer s.ctr.queued.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shedding reports whether the admission wait queue is currently full —
// the readiness signal cmd/lmtd's /readyz exposes: a shedding instance is
// alive but should not receive new traffic.
func (s *Service) Shedding() bool {
	m := s.opts.MaxQueued
	return m > 0 && s.ctr.queued.Load() >= int64(m)
}

// servedResponse assembles a Response around a memoized result. The graph
// necessarily came from the cache (the result key embeds its key), so
// CacheHit is always true here.
func servedResponse(entry *cacheEntry, task spec.TaskSpec, cr *cachedResult, resultHit, shared bool) *Response {
	return &Response{
		Kind:      task.Kind,
		Graph:     GraphInfo{Key: entry.key, Name: entry.g.Name(), N: entry.g.N(), M: entry.g.M()},
		RunGraph:  cr.runGraph,
		CacheHit:  true,
		ResultHit: resultHit,
		Shared:    shared,
		Seed:      task.Seed,
		Result:    cr.result,
	}
}

// execute is Run past admission: resolve the graph, then compute through
// the result cache's singleflight group so concurrent identical requests
// fold into one runner invocation.
func (s *Service) execute(ctx context.Context, run Runner, req Request) (*Response, error) {
	entry, hit, err := s.cache.get(req.Graph)
	if err != nil {
		return nil, err
	}
	task := s.normalize(req, entry.g.N())
	key := resultKey(entry.key, task)
	var runGraph *GraphInfo
	cr, resultHit, shared, err := s.results.do(ctx, key, func() (*cachedResult, error) {
		if task.Cluster != nil {
			res, err := s.runCluster(ctx, req.Graph, task)
			if err != nil {
				return nil, err
			}
			return &cachedResult{result: res}, nil
		}
		inv := &Invocation{Env: &Env{g: entry.g, entry: entry}, Task: task, Ctx: ctx, ctr: &s.ctr}
		if task.Churn != nil {
			cv, err := entry.churn(task)
			if err != nil {
				return nil, err
			}
			inv.Churn = cv.prov
			inv.churnKey = cv.key
			if cv.runG != entry.g {
				inv.Env = &Env{g: cv.runG, entry: entry}
				runGraph = &GraphInfo{Name: cv.runG.Name(), N: cv.runG.N(), M: cv.runG.M()}
			}
		}
		res, err := safeRun(run, inv, s.opts.Fault, &s.ctr)
		if err != nil {
			return nil, err
		}
		return &cachedResult{result: res, runGraph: runGraph}, nil
	})
	if err != nil {
		return nil, err
	}
	resp := servedResponse(entry, task, cr, resultHit, shared)
	resp.CacheHit = hit
	return resp, nil
}

// runCluster dispatches a ClusterSpec-carrying task to the attached peer
// cluster and accumulates the transport counters from the merged engine
// stats the result carries.
func (s *Service) runCluster(ctx context.Context, gs spec.GraphSpec, task spec.TaskSpec) (any, error) {
	if s.opts.Cluster == nil {
		return nil, fmt.Errorf("%w: no peer cluster attached to this service", ErrInvalidRequest)
	}
	s.ctr.clusterRuns.Add(1)
	res, err := s.opts.Cluster.Run(ctx, gs, task)
	if err != nil {
		return nil, err
	}
	var st *congest.Stats
	switch r := res.(type) {
	case *core.Result:
		st = r.Stats
	case *core.TokenWalkResult:
		st = r.Stats
		s.ctr.tokenRetries.Add(r.Retries)
	}
	if st != nil {
		s.ctr.wireBytes.Add(st.WireBytes)
		s.ctr.framesSent.Add(st.FramesSent)
		s.ctr.framesRecv.Add(st.FramesRecv)
	}
	return res, nil
}

// normalize drops the fields the kind never reads (spec.WithoutUnread),
// then fills the spec-path defaults: ε, the sweep mode (the default
// "approx" is spelled ""), the oracle step budget, and — when the request
// omits a seed — the deterministic per-request seed derived from the
// service base seed and the request content, so identical requests repeat
// identically while distinct requests draw uncorrelated randomness.
func (s *Service) normalize(req Request, n int) spec.TaskSpec {
	t := req.Task.WithoutUnread()
	if t.Eps == 0 {
		t.Eps = spec.DefaultEps
	}
	if t.Kind == spec.KindSweep && t.Mode == "approx" {
		t.Mode = ""
	}
	switch t.Kind {
	case spec.KindOracleMixing, spec.KindOracleLocal, spec.KindOracleGraphMixing, spec.KindOracleGraphLocal:
		if t.MaxT == 0 {
			t.MaxT = 8 * n * n
		}
	}
	if t.Seed == 0 {
		// Hash the request content minus the schedule-only fields, so two
		// requests differing only in how they are scheduled derive the same
		// seed (and therefore the same results).
		h := fnv.New64a()
		h.Write([]byte(req.Graph.Key()))
		h.Write([]byte{'|'})
		h.Write([]byte(withoutSchedule(t).Key()))
		t.Seed = sweep.DeriveSeed(s.opts.BaseSeed^int64(h.Sum64()), 0)
	}
	return t
}

// Metrics is a point-in-time snapshot of the service counters (exposed at
// /metrics by cmd/lmtd).
type Metrics struct {
	// Requests counts every Run call; Errors the failed ones.
	Requests, Errors int64
	// InFlight is the current number of executing requests; PeakInFlight
	// the high-water mark (≤ the admission cap).
	InFlight, PeakInFlight int64
	// GraphHits and GraphMisses count graph-cache lookups.
	GraphHits, GraphMisses int64
	// KernelBuilds counts walk-kernel constructions (a warm cache stops
	// incrementing it).
	KernelBuilds int64
	// PoolBuilds and PoolHits count warm sweep-pool constructions and
	// reuses.
	PoolBuilds, PoolHits int64
	// ChurnBuilds counts churn-model constructions.
	ChurnBuilds int64
	// ResultHits and ResultMisses count result-cache lookups (a hit serves
	// the memoized response; a miss runs the task once and stores it).
	ResultHits, ResultMisses int64
	// SingleflightShared counts requests that attached to an identical
	// in-flight computation instead of running their own.
	SingleflightShared int64
	// ResultEvictions counts LRU evictions from the result cache;
	// ResultBytes is the JSON-encoded size of the currently memoized
	// results.
	ResultEvictions, ResultBytes int64
	// Batches counts RunBatch calls (each fans into Requests).
	Batches int64
	// Queued is the current number of requests waiting at admission;
	// bounded by Options.MaxQueued when set.
	Queued int64
	// RunnerPanics counts runner invocations that panicked and were
	// recovered into ErrRunnerPanic-tagged failures.
	RunnerPanics int64
	// ShedRequests counts requests refused at admission with ErrOverloaded
	// because the wait queue was full.
	ShedRequests int64
	// TokenRetries accumulates the edge-loss retries of every completed
	// walk task — how hard churn is hitting the token walks.
	TokenRetries int64
	// ClusterRuns counts tasks dispatched to the attached peer cluster.
	ClusterRuns int64
	// WireBytes, FramesSent and FramesRecv accumulate the cluster transport
	// counters of every completed cluster run (summed over peers; zero when
	// everything runs in-process).
	WireBytes, FramesSent, FramesRecv int64
	// CachedGraphs is the current graph-cache size; CachedResults the
	// current result-cache size.
	CachedGraphs  int
	CachedResults int
}

// Metrics snapshots the counters.
func (s *Service) Metrics() Metrics {
	return Metrics{
		Requests:           s.ctr.requests.Load(),
		Errors:             s.ctr.errors.Load(),
		InFlight:           s.ctr.inFlight.Load(),
		PeakInFlight:       s.ctr.peakInFlight.Load(),
		GraphHits:          s.ctr.graphHits.Load(),
		GraphMisses:        s.ctr.graphMisses.Load(),
		KernelBuilds:       s.ctr.kernelBuilds.Load(),
		PoolBuilds:         s.ctr.poolBuilds.Load(),
		PoolHits:           s.ctr.poolHits.Load(),
		ChurnBuilds:        s.ctr.churnBuilds.Load(),
		ResultHits:         s.ctr.resultHits.Load(),
		ResultMisses:       s.ctr.resultMisses.Load(),
		SingleflightShared: s.ctr.sfShared.Load(),
		ResultEvictions:    s.ctr.resultEvictions.Load(),
		ResultBytes:        s.ctr.resultBytes.Load(),
		Batches:            s.ctr.batches.Load(),
		Queued:             s.ctr.queued.Load(),
		RunnerPanics:       s.ctr.runnerPanics.Load(),
		ShedRequests:       s.ctr.shedRequests.Load(),
		TokenRetries:       s.ctr.tokenRetries.Load(),
		ClusterRuns:        s.ctr.clusterRuns.Load(),
		WireBytes:          s.ctr.wireBytes.Load(),
		FramesSent:         s.ctr.framesSent.Load(),
		FramesRecv:         s.ctr.framesRecv.Load(),
		CachedGraphs:       s.cache.len(),
		CachedResults:      s.results.len(),
	}
}
