package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
)

// postRun submits one request body and decodes the JSON reply.
func postRun(t *testing.T, url string, req service.Request) (map[string]any, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func TestServerEndToEnd(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()

	gs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}
	req := service.Request{Graph: gs,
		Task: spec.TaskSpec{Kind: spec.KindMixing, Eps: 0.1, Seed: 1, Irregular: true}}
	out, status := postRun(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/run returned %d: %v", status, out)
	}
	result, ok := out["result"].(map[string]any)
	if !ok {
		t.Fatalf("response has no result object: %v", out)
	}
	g, err := gs.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MixingTime(g, 0, 0.1, core.WithSeed(1), core.WithIrregular())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(result["Tau"].(float64)); got != want.Tau {
		t.Fatalf("served Tau=%d, direct run says %d", got, want.Tau)
	}
	if hit := out["cacheHit"].(bool); hit {
		t.Fatal("first request reported a cache hit")
	}
	if out2, _ := postRun(t, ts.URL, req); !out2["cacheHit"].(bool) {
		t.Fatal("second request missed the cache")
	} else if !reflect.DeepEqual(out["result"], out2["result"]) {
		t.Fatal("repeated request changed the served result")
	}
}

func TestServerTasksHealthzMetrics(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()

	get := func(path string) (string, int) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.StatusCode
	}

	body, status := get("/v1/tasks")
	if status != http.StatusOK {
		t.Fatalf("/v1/tasks returned %d", status)
	}
	var tasks struct {
		Tasks []service.TaskInfo `json:"tasks"`
	}
	if err := json.Unmarshal([]byte(body), &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks.Tasks) != len(spec.Kinds()) {
		t.Fatalf("/v1/tasks lists %d kinds, want %d", len(tasks.Tasks), len(spec.Kinds()))
	}

	if body, status := get("/healthz"); status != http.StatusOK || !strings.Contains(body, "true") {
		t.Fatalf("/healthz returned %d %q", status, body)
	}

	body, status = get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics returned %d", status)
	}
	for _, name := range []string{
		"lmtd_requests_total", "lmtd_in_flight", "lmtd_graph_cache_hits_total",
		"lmtd_graph_cache_misses_total", "lmtd_pool_hits_total",
		"lmtd_result_cache_hits_total", "lmtd_result_cache_misses_total",
		"lmtd_singleflight_shared_total", "lmtd_result_cache_evictions_total",
		"lmtd_result_cache_bytes", "lmtd_cached_results", "lmtd_batches_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// TestServerClusterSweepMetrics drives a distributed sweep through the HTTP
// surface with a real loopback cluster attached and checks the coordinator's
// scheduling observables — registered peers, dispatched chunks, per-peer
// resident graph bytes — appear on /metrics.
func TestServerClusterSweepMetrics(t *testing.T) {
	coord, err := cluster.NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const peers = 2
	errs := make(chan error, peers)
	for i := 0; i < peers; i++ {
		go func() { errs <- cluster.Serve(context.Background(), coord.Addr()) }()
	}
	t.Cleanup(func() {
		coord.Close()
		for i := 0; i < peers; i++ {
			if err := <-errs; err != nil {
				t.Errorf("peer serve: %v", err)
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForPeers(ctx, peers); err != nil {
		t.Fatal(err)
	}

	d := newDaemon(service.New(service.Options{Cluster: coord}))
	d.cluster = coord
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	gs := spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}
	out, status := postRun(t, ts.URL, service.Request{Graph: gs,
		Task: spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5,
			Cluster: &spec.ClusterSpec{}}})
	if status != http.StatusOK {
		t.Fatalf("cluster sweep returned %d: %v", status, out)
	}
	// An engine task waits on inbound frames every round, so the round-wait
	// counter moves off zero (sweeps never touch it).
	out, status = postRun(t, ts.URL, service.Request{Graph: gs,
		Task: spec.TaskSpec{Kind: spec.KindWalk, Source: 0, Steps: 16, Seed: 5,
			Cluster: &spec.ClusterSpec{}}})
	if status != http.StatusOK {
		t.Fatalf("cluster walk returned %d: %v", status, out)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	// n = 20 sources on the ChunkSize = 8 grid is exactly 3 chunks.
	for _, line := range []string{
		"lmtd_cluster_peers 2",
		"lmtd_cluster_runs_total 2",
		"lmtd_cluster_sweep_chunks_total 3",
		`lmtd_cluster_peer_resident_graph_bytes{peer="0"} `,
		`lmtd_cluster_peer_resident_graph_bytes{peer="1"} `,
		// Round control rides the data frames: the coordinator folds
		// nothing, and the line stays for readers that look it up by name.
		"lmtd_cluster_sync_batches_total 0\n",
		"lmtd_cluster_round_wait_ns_total ",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if strings.Contains(body, "lmtd_cluster_round_wait_ns_total 0\n") {
		t.Error("/metrics round-wait counter stuck at zero after an engine run")
	}
}

// TestServerBodyLimit: a request body past maxBodyBytes is refused with 413
// on both POST routes, before it is buffered whole.
func TestServerBodyLimit(t *testing.T) {
	h := newHandler(service.New(service.Options{}))
	for _, route := range []string{"/v1/run", "/v1/batch"} {
		t.Run(strings.TrimPrefix(route, "/v1/"), func(t *testing.T) {
			// A JSON string that never ends: the decoder reads until the cap.
			body := io.MultiReader(strings.NewReader(`{"graph":{"family":"`),
				io.LimitReader(zeros{}, maxBodyBytes+1))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, body))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized body returned %d, want 413: %s", rec.Code, rec.Body)
			}
		})
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestServerRejectsRetiredSyncField: request fields of retired mechanisms
// are rejected with a 400, not silently ignored: the roundsPerSync cluster
// field and coverage.engine are unknown fields now, and "engine" is no
// longer a spread transport.
func TestServerRejectsRetiredSyncField(t *testing.T) {
	ts := httptest.NewServer(newHandler(service.New(service.Options{})))
	defer ts.Close()
	for name, task := range map[string]string{
		"roundsPerSync":    `{"kind":"walk","steps":4,"cluster":{"roundsPerSync":8}}`,
		"engine transport": `{"kind":"spread","beta":2,"transport":"engine"}`,
		"coverage engine":  `{"kind":"coverage","beta":2,"coverage":{"universe":20,"perNode":3,"k":2,"engine":true}}`,
		"dynamic kind":     `{"kind":"dynamic","mode":"local","churn":{"model":"markov","rate":0.1}}`,
		"mode on local":    `{"kind":"local","mode":"mixing","churn":{"model":"markov","rate":0.1}}`,
		"exact on sweep":   `{"kind":"sweep","exact":true}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(
			`{"graph":{"family":"path","n":8},"task":`+task+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestServerBatch(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()

	walk := spec.TaskSpec{Kind: spec.KindWalk, Steps: 16, Seed: 9}
	mix := spec.TaskSpec{Kind: spec.KindMixing, Eps: 0.1, Seed: 1, Irregular: true}
	body, err := json.Marshal(batchRequest{
		Graph: spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5},
		Tasks: []spec.TaskSpec{walk, walk, mix},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch returned %d", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(out.Items))
	}
	for i, item := range out.Items {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d failed: %q", i, item.Error)
		}
	}
	// The duplicate walk entry is served from the result cache, not
	// recomputed; the summary is the contract the CI smoke asserts too.
	want := service.BatchSummary{Tasks: 3, Computed: 2, ResultHits: 1}
	if out.Summary != want {
		t.Fatalf("batch summary %+v, want %+v", out.Summary, want)
	}
	if !out.Items[1].Response.ResultHit {
		t.Fatal("duplicate batch entry did not report a result-cache hit")
	}
	if !reflect.DeepEqual(out.Items[0].Response.Result, out.Items[1].Response.Result) {
		t.Fatal("duplicate batch entries returned different results")
	}
	if m := svc.Metrics(); m.Batches != 1 {
		t.Fatalf("metrics report %d batches, want 1", m.Batches)
	}

	// A failing item stays item-local: the rest of the batch completes.
	body, err = json.Marshal(batchRequest{
		Graph: spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5},
		Tasks: []spec.TaskSpec{{Kind: "teleport"}, walk},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Error == "" || out.Items[1].Response == nil {
		t.Fatalf("mixed batch: items %+v", out.Items)
	}
	if out.Summary.Errors != 1 || out.Summary.ResultHits != 1 {
		t.Fatalf("mixed batch summary %+v, want 1 error and 1 hit", out.Summary)
	}
}

func TestServerErrorStatuses(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()

	cases := []struct {
		name   string
		req    service.Request
		status int
	}{
		{"unknown family",
			service.Request{Graph: spec.GraphSpec{Family: "moebius"}, Task: spec.TaskSpec{Kind: spec.KindMixing}},
			http.StatusBadRequest},
		{"unknown kind",
			service.Request{Graph: spec.GraphSpec{Family: "path", N: 8}, Task: spec.TaskSpec{Kind: "teleport"}},
			http.StatusBadRequest},
		{"run failure (bipartite non-lazy)",
			service.Request{Graph: spec.GraphSpec{Family: "cycle", N: 8}, Task: spec.TaskSpec{Kind: spec.KindMixing, Seed: 1}},
			http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		out, status := postRun(t, ts.URL, c.req)
		if status != c.status {
			t.Errorf("%s: status %d, want %d (%v)", c.name, status, c.status, out)
		}
		if out["error"] == "" {
			t.Errorf("%s: error body missing", c.name)
		}
	}

	// Malformed JSON is a 400 too.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON returned %d, want 400", resp.StatusCode)
	}
}

// The acceptance bar: the server answers a burst of ≥ 8 concurrent
// requests under a smaller admission cap, each deterministically.
func TestServerConcurrentBurstDeterministic(t *testing.T) {
	svc := service.New(service.Options{MaxInFlight: 3})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()

	req := service.Request{
		Graph: spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5},
		Task:  spec.TaskSpec{Kind: spec.KindWalk, Steps: 16, Seed: 9},
	}
	const burst = 8
	results := make([]map[string]any, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, status := postRun(t, ts.URL, req)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d (%v)", i, status, out)
				return
			}
			results[i] = out["result"].(map[string]any)
		}(i)
	}
	wg.Wait()
	for i := 1; i < burst; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("request %d diverged from request 0 under concurrency", i)
		}
	}
	m := svc.Metrics()
	if m.PeakInFlight > 3 {
		t.Fatalf("peak in-flight %d exceeded the admission cap 3", m.PeakInFlight)
	}
	if m.Requests < burst {
		t.Fatalf("served %d requests, want ≥ %d", m.Requests, burst)
	}
}

// benchGraph and benchTask are the load-generator workload: a distributed
// mixing run (~1ms of compute) on the standard ring-of-cliques, heavy
// enough that the compute path and the memoized path are clearly separated.
var benchGraph = spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}
var benchTask = spec.TaskSpec{Kind: spec.KindMixing, Eps: 0.1, Seed: 9, Irregular: true}

// hammer drives parallel clients posting bodies produced by mkBody (called
// per request with a request ordinal) and reports req/sec.
func hammer(b *testing.B, url string, mkBody func(i int64) []byte) {
	var seq int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := mkBody(atomic.AddInt64(&seq, 1))
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/sec")
	}
}

// BenchmarkLoadGenerator is the lmtd load generator: parallel clients
// hammering the full HTTP path. req/sec is the headline metric of each
// variant; warm/cold is the memoization ratio the perf trajectory tracks
// (warm must not rebuild the graph, the kernel, or run any oracle).
func BenchmarkLoadGenerator(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		// Identical requests: the first computes, the rest are result-cache
		// hits — two map lookups plus HTTP.
		svc := service.New(service.Options{})
		ts := httptest.NewServer(newHandler(svc))
		defer ts.Close()
		body, err := json.Marshal(service.Request{Graph: benchGraph, Task: benchTask})
		if err != nil {
			b.Fatal(err)
		}
		hammer(b, ts.URL+"/v1/run", func(int64) []byte { return body })
		m := svc.Metrics()
		if m.GraphMisses != 1 {
			b.Fatalf("warm run rebuilt the graph %d times", m.GraphMisses)
		}
		if m.ResultMisses != 1 {
			b.Fatalf("warm run computed %d times, want 1", m.ResultMisses)
		}
	})
	b.Run("cold", func(b *testing.B) {
		// Unique seed per request: the graph and kernel stay warm but every
		// request runs the oracle — PR 5's compute path, the warm variant's
		// baseline.
		svc := service.New(service.Options{})
		ts := httptest.NewServer(newHandler(svc))
		defer ts.Close()
		hammer(b, ts.URL+"/v1/run", func(i int64) []byte {
			task := benchTask
			task.Seed = 1000 + i
			body, err := json.Marshal(service.Request{Graph: benchGraph, Task: task})
			if err != nil {
				b.Fatal(err)
			}
			return body
		})
		if m := svc.Metrics(); m.GraphMisses != 1 {
			b.Fatalf("cold run rebuilt the graph %d times", m.GraphMisses)
		}
	})
	b.Run("batch", func(b *testing.B) {
		// One POST carrying 16 tasks: HTTP and JSON overhead amortize over
		// the batch; tasks/sec is the comparable metric.
		svc := service.New(service.Options{})
		ts := httptest.NewServer(newHandler(svc))
		defer ts.Close()
		const batchSize = 16
		tasks := make([]spec.TaskSpec, batchSize)
		for i := range tasks {
			tasks[i] = benchTask
			tasks[i].Seed = int64(9 + i%4) // 4 distinct specs, 4 duplicates each
		}
		body, err := json.Marshal(batchRequest{Graph: benchGraph, Tasks: tasks})
		if err != nil {
			b.Fatal(err)
		}
		hammer(b, ts.URL+"/v1/batch", func(int64) []byte { return body })
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)*batchSize/sec, "tasks/sec")
		}
		if m := svc.Metrics(); m.ResultMisses > 4 {
			b.Fatalf("batch run computed %d distinct tasks, want ≤ 4", m.ResultMisses)
		}
	})
}
