// Command lmtd serves the spec-driven job layer over HTTP/JSON: the same
// service.Run path cmd/lmt dispatches to, kept warm across requests — the
// graph cache, walk kernels, and sweep pools amortize across every client,
// and a semaphore admission-controls concurrent runs.
//
// Endpoints:
//
//	POST /v1/run    {"graph": {...GraphSpec...}, "task": {...TaskSpec...}}
//	                → service.Response JSON (result under "result")
//	POST /v1/batch  {"graph": {...GraphSpec...}, "tasks": [{...TaskSpec...}, ...]}
//	                → {"items": [...], "summary": {...}} — many tasks against
//	                one graph; identical tasks compute once (result cache)
//	GET  /v1/tasks  registered task kinds with descriptions
//	GET  /healthz   liveness probe (200 while the process serves at all)
//	GET  /readyz    readiness probe (503 while draining or shedding load)
//	GET  /metrics   Prometheus-style counters (cache hit/miss, in-flight,
//	                fault counters: runner panics, shed requests, retries)
//
// Example:
//
//	lmtd -addr :8080 &
//	curl -s localhost:8080/v1/run -d '{
//	  "graph": {"family": "ringcliques", "blocks": 8, "k": 16},
//	  "task":  {"kind": "mixing", "seed": 1, "irregular": true}
//	}' | jq .result.Tau
//
// The answer is byte-identical to `lmt -graph ringcliques -beta 8 -k 16
// -mode mixing` — both are one service.Run of the same spec.
//
// Cluster mode splits one CONGEST run across processes: a coordinator
// (`lmtd -addr :8080 -cluster :9090`) serves HTTP as usual and additionally
// accepts compute peers (`lmtd -peer host:9090`, no HTTP server). A request
// whose task carries `"cluster": {}` is sharded across the registered peers,
// which exchange per-round message frames over a TCP mesh; the determinism
// contract of internal/cluster guarantees the answer is DeepEqual to the
// single-process run, so cluster and in-process results share one cache.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/spec"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	clusterAddr := flag.String("cluster", "", "coordinator listen address for cluster mode (empty = off); tasks carrying a cluster spec run across the registered peers")
	peerAddr := flag.String("peer", "", "run as a compute peer of the cluster coordinator at this address (no HTTP server)")
	cache := flag.Int("cache", 16, "graph-cache capacity (entries)")
	resultCache := flag.Int("resultcache", 256, "result-cache capacity (memoized responses)")
	inflight := flag.Int("maxinflight", 0, "admission cap on concurrently executing requests (0 = max(8, GOMAXPROCS))")
	maxQueued := flag.Int("maxqueued", 0, "admission wait-queue bound; past it requests are shed with a fast 503 (0 = unbounded)")
	seed := flag.Int64("seed", 1, "base seed for per-request derived seeds (requests that omit task.seed)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	chaosPanic := flag.Int64("chaospanic", 0, "chaos testing: panic inside every Nth runner invocation (0 = off)")
	chaosError := flag.Int64("chaoserror", 0, "chaos testing: fail every Nth runner invocation with an injected error (0 = off)")
	chaosLatency := flag.Duration("chaoslatency", 0, "chaos testing: add this latency to every runner invocation (0 = off)")
	flag.Parse()

	if *peerAddr != "" {
		// Peer mode: no HTTP surface at all — just the cluster control
		// connection. The peer computes shards of jobs the coordinator
		// dispatches until signaled (or the coordinator goes away).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		log.Printf("lmtd: peer mode, registering with coordinator at %s", *peerAddr)
		// A refused dial usually means the coordinator is still coming up
		// (or restarting) — keep knocking for a while before giving up, so
		// peer and coordinator processes can be launched in any order.
		var err error
		for i := 0; i < 40; i++ {
			err = cluster.Serve(ctx, *peerAddr)
			if err == nil || ctx.Err() != nil || !errors.Is(err, syscall.ECONNREFUSED) {
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
		if err != nil {
			log.Fatalf("lmtd: peer: %v", err)
		}
		log.Printf("lmtd: peer shut down cleanly")
		return
	}

	var inj *service.FaultInjector
	if *chaosPanic > 0 || *chaosError > 0 || *chaosLatency > 0 {
		inj = &service.FaultInjector{PanicEvery: *chaosPanic, ErrorEvery: *chaosError, Latency: *chaosLatency}
		log.Printf("lmtd: CHAOS MODE: panic every %d, error every %d, latency %s", *chaosPanic, *chaosError, *chaosLatency)
	}
	opts := service.Options{
		CacheSize:       *cache,
		ResultCacheSize: *resultCache,
		MaxInFlight:     *inflight,
		MaxQueued:       *maxQueued,
		BaseSeed:        *seed,
		Fault:           inj,
	}
	var coord *cluster.Coordinator
	if *clusterAddr != "" {
		var err error
		coord, err = cluster.NewCoordinator(*clusterAddr)
		if err != nil {
			log.Fatalf("lmtd: cluster coordinator: %v", err)
		}
		defer coord.Close()
		opts.Cluster = coord
		log.Printf("lmtd: cluster coordinator on %s (peers register with -peer %s)", coord.Addr(), coord.Addr())
	}
	svc := service.New(opts)
	d := newDaemon(svc)
	d.cluster = coord
	srv := &http.Server{Addr: *addr, Handler: d.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("lmtd listening on %s (admission cap %d, cache %d graphs)", *addr, svc.MaxInFlight(), *cache)

	select {
	case err := <-errc:
		log.Fatalf("lmtd: %v", err)
	case <-ctx.Done():
	}
	// Flip readiness before draining: a load balancer polling /readyz stops
	// routing new traffic while in-flight requests finish.
	d.draining.Store(true)
	log.Printf("lmtd: shutting down (drain %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("lmtd: shutdown: %v", err)
	}
}

// daemon bundles the service with the process-level serving state the
// health endpoints report: liveness is the process being up at all,
// readiness additionally requires not draining (graceful shutdown in
// progress) and not shedding (admission queue full).
type daemon struct {
	svc      *service.Service
	cluster  *cluster.Coordinator // nil unless -cluster was given
	draining atomic.Bool
}

func newDaemon(svc *service.Service) *daemon { return &daemon{svc: svc} }

// newHandler builds the route table over one Service with no drain state —
// the in-process form tests and the load-generator benchmark serve.
func newHandler(svc *service.Service) http.Handler { return newDaemon(svc).handler() }

// handler builds the lmtd route table.
func (d *daemon) handler() http.Handler {
	svc := d.svc
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req service.Request
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := svc.Run(r.Context(), req)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req batchRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if len(req.Tasks) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("batch needs at least one task"))
			return
		}
		reqs := make([]service.Request, len(req.Tasks))
		for i, t := range req.Tasks {
			reqs[i] = service.Request{Graph: req.Graph, Task: t}
		}
		items, sum := svc.RunBatch(r.Context(), reqs)
		writeJSON(w, http.StatusOK, batchResponse{Items: items, Summary: sum})
	})
	mux.HandleFunc("GET /v1/tasks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tasks": svc.Tasks()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: true as long as the process can answer at all.
		// Orchestrators restart on liveness failure, so a merely-overloaded
		// or draining instance must still pass here.
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case d.draining.Load():
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		case svc.Shedding():
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "shedding"})
		default:
			writeJSON(w, http.StatusOK, map[string]any{"ready": true})
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeMetrics(w, svc.Metrics())
		if d.cluster != nil {
			metricGauge(w, "lmtd_cluster_peers", "Compute peers currently registered with the coordinator.", int64(d.cluster.Peers()))
			metricCounter(w, "lmtd_cluster_sweep_chunks_total", "Source chunks dispatched to peers by distributed sweeps.", d.cluster.SweepChunks())
			// Always 0: round control rides the data frames, so the
			// coordinator folds nothing. The line stays for readers that
			// look the counter up by name.
			metricCounter(w, "lmtd_cluster_sync_batches_total", "Always 0: round control rides the cluster data frames, so the coordinator folds no round reports.", 0)
			metricCounter(w, "lmtd_cluster_round_wait_ns_total", "Nanoseconds peer engines spent blocked on inbound round frames, summed across peers and jobs.", d.cluster.RoundWaitNs())
			writePeerResident(w, d.cluster.PeerResidentBytes())
		}
	})
	return mux
}

// maxBodyBytes caps a request body. It equals the cluster control plane's
// per-message cap, so any accepted request still fits a prepare message.
const maxBodyBytes = 16 << 20

// decodeBody decodes the capped JSON request body into v, rejecting
// unknown fields. On failure it writes the error reply — 413 for an
// oversized body, 400 otherwise — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// batchRequest is the POST /v1/batch body: one graph, many tasks.
type batchRequest struct {
	Graph spec.GraphSpec  `json:"graph"`
	Tasks []spec.TaskSpec `json:"tasks"`
}

// batchResponse is the POST /v1/batch reply.
type batchResponse struct {
	Items   []service.BatchItem  `json:"items"`
	Summary service.BatchSummary `json:"summary"`
}

// statusFor maps service errors to HTTP statuses: malformed specs are the
// client's fault, shed or cancelled requests are retryable 503s, a
// recovered runner panic is a plain 500 (the request is poisoned — clients
// should not retry it), and the rest are run failures.
func statusFor(err error) int {
	switch {
	case errors.Is(err, service.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, service.ErrRunnerPanic):
		return http.StatusInternalServerError
	case errors.Is(err, service.ErrOverloaded),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		// Every 503 — shed, draining, or timed out — tells well-behaved
		// clients when to come back (cmd/lmt's -retry honors it).
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		log.Printf("lmtd: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// metricGauge and metricCounter emit one metric in the Prometheus text
// exposition format.
func metricGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func metricCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// writePeerResident emits one labeled gauge line per cluster peer with the
// CSR bytes it reported resident for the most recent job — the observable
// for the sharded-build memory contract (≈ full/P on shardable families).
func writePeerResident(w io.Writer, resident []int64) {
	if len(resident) == 0 {
		return
	}
	const name = "lmtd_cluster_peer_resident_graph_bytes"
	fmt.Fprintf(w, "# HELP %s Graph bytes resident on each peer for the last cluster job.\n# TYPE %s gauge\n", name, name)
	for p, r := range resident {
		fmt.Fprintf(w, "%s{peer=\"%d\"} %d\n", name, p, r)
	}
}

// writeMetrics renders the service counters in the Prometheus text
// exposition format.
func writeMetrics(w http.ResponseWriter, m service.Metrics) {
	gauge := func(name, help string, v int64) { metricGauge(w, name, help, v) }
	counter := func(name, help string, v int64) { metricCounter(w, name, help, v) }
	counter("lmtd_requests_total", "Requests received by service.Run.", m.Requests)
	counter("lmtd_errors_total", "Requests that failed.", m.Errors)
	gauge("lmtd_in_flight", "Requests currently executing.", m.InFlight)
	gauge("lmtd_in_flight_peak", "High-water mark of concurrently executing requests.", m.PeakInFlight)
	counter("lmtd_graph_cache_hits_total", "Graph-cache hits.", m.GraphHits)
	counter("lmtd_graph_cache_misses_total", "Graph-cache misses (graph builds).", m.GraphMisses)
	counter("lmtd_kernel_builds_total", "Walk-kernel constructions.", m.KernelBuilds)
	counter("lmtd_pool_builds_total", "Warm sweep-pool constructions.", m.PoolBuilds)
	counter("lmtd_pool_hits_total", "Warm sweep-pool reuses.", m.PoolHits)
	counter("lmtd_churn_builds_total", "Churn-model constructions.", m.ChurnBuilds)
	counter("lmtd_result_cache_hits_total", "Result-cache hits (responses served without a runner invocation).", m.ResultHits)
	counter("lmtd_result_cache_misses_total", "Result-cache misses (runner invocations started).", m.ResultMisses)
	counter("lmtd_singleflight_shared_total", "Requests that waited on an identical in-flight computation.", m.SingleflightShared)
	counter("lmtd_result_cache_evictions_total", "Result-cache LRU evictions.", m.ResultEvictions)
	counter("lmtd_batches_total", "Batch requests received.", m.Batches)
	counter("lmtd_runner_panics_total", "Runner invocations that panicked and were recovered into 500s.", m.RunnerPanics)
	counter("lmtd_shed_requests_total", "Requests shed at admission with a fast 503 (wait queue full).", m.ShedRequests)
	counter("lmtd_token_retries_total", "Cumulative token-walk edge-loss retries across completed walk tasks.", m.TokenRetries)
	counter("lmtd_cluster_runs_total", "Tasks dispatched to the attached peer cluster.", m.ClusterRuns)
	counter("lmtd_transport_wire_bytes_total", "Frame bytes moved over cluster transports, both directions (zero for loopback runs).", m.WireBytes)
	counter("lmtd_transport_frames_sent_total", "Message frames written to cluster transports.", m.FramesSent)
	counter("lmtd_transport_frames_recv_total", "Message frames read from cluster transports.", m.FramesRecv)
	gauge("lmtd_queued", "Requests waiting at admission.", m.Queued)
	gauge("lmtd_result_cache_bytes", "JSON-encoded size of the memoized results.", m.ResultBytes)
	gauge("lmtd_cached_results", "Results currently memoized.", int64(m.CachedResults))
	gauge("lmtd_cached_graphs", "Graphs currently cached.", int64(m.CachedGraphs))
}
