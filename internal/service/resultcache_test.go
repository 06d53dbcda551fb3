package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// TestSingleflightSharesOneComputation: N concurrent identical requests
// must produce DeepEqual responses from exactly one runner invocation — the
// leader computes while every other request waits on its flight.
func TestSingleflightSharesOneComputation(t *testing.T) {
	var invocations atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	reg := NewRegistry()
	reg.Register(spec.KindMixing, "gated probe", func(inv *Invocation) (any, error) {
		if invocations.Add(1) == 1 {
			close(entered)
		}
		<-release
		return &TauResult{Tau: 42}, nil
	})
	svc := New(Options{Registry: reg})
	req := Request{Graph: spec.GraphSpec{Family: "path", N: 8},
		Task: spec.TaskSpec{Kind: spec.KindMixing, Seed: 3}}

	const waiters = 8
	responses := make([]*Response, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the leader
		defer wg.Done()
		resp, err := svc.Run(context.Background(), req)
		if err != nil {
			t.Error(err)
			return
		}
		responses[0] = resp
	}()
	<-entered // the leader's flight is registered and its runner is running
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Run(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	// Every waiter must attach to the in-flight computation, not start a
	// second one.
	for svc.Metrics().SingleflightShared < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := invocations.Load(); got != 1 {
		t.Fatalf("runner invoked %d times for identical concurrent requests, want 1", got)
	}
	shared := 0
	for i, resp := range responses {
		if !reflect.DeepEqual(resp.Result, responses[0].Result) {
			t.Fatalf("response %d diverged: %+v vs %+v", i, resp.Result, responses[0].Result)
		}
		if resp.Shared {
			shared++
		}
	}
	if shared != waiters {
		t.Fatalf("%d responses report Shared, want %d", shared, waiters)
	}
	m := svc.Metrics()
	if m.ResultMisses != 1 || m.SingleflightShared != waiters {
		t.Fatalf("misses=%d shared=%d, want 1/%d", m.ResultMisses, m.SingleflightShared, waiters)
	}
}

// TestResultCacheEvictionRecomputesDeterministically: with a 1-entry result
// cache, a second spec evicts the first; re-running the first recomputes it
// to a DeepEqual response.
func TestResultCacheEvictionRecomputesDeterministically(t *testing.T) {
	svc := New(Options{ResultCacheSize: 1})
	reqA := Request{Graph: ringSpec, Task: spec.TaskSpec{Kind: spec.KindWalk, Steps: 12}} // seedless: derived seed
	reqB := Request{Graph: ringSpec, Task: spec.TaskSpec{Kind: spec.KindWalk, Steps: 13}}

	first := mustRun(t, svc, reqA)
	if hit := mustRun(t, svc, reqA); !hit.ResultHit {
		t.Fatal("repeat before eviction missed the result cache")
	}
	mustRun(t, svc, reqB) // evicts reqA
	m := svc.Metrics()
	if m.ResultEvictions != 1 || m.CachedResults != 1 {
		t.Fatalf("evictions=%d cached=%d, want 1/1", m.ResultEvictions, m.CachedResults)
	}
	again := mustRun(t, svc, reqA)
	if again.ResultHit {
		t.Fatal("evicted entry reported a result hit")
	}
	if again.Seed != first.Seed || !reflect.DeepEqual(again.Result, first.Result) {
		t.Fatalf("eviction broke determinism:\n  first %+v\n  again %+v", first.Result, again.Result)
	}
	if m2 := svc.Metrics(); m2.ResultMisses != m.ResultMisses+1 {
		t.Fatalf("evicted entry did not recompute (misses %d -> %d)", m.ResultMisses, m2.ResultMisses)
	}
	if svc.Metrics().ResultBytes <= 0 {
		t.Fatal("result-bytes gauge is not positive with a cached entry")
	}
}

// TestDeadlineAbortsQuicklyWithoutPoisoning: a tiny deadline on a large
// torus aborts fast with a timeout-tagged error, leaves no partial entry in
// the result cache, and the identical request without a deadline (same
// result key — DeadlineMS is schedule-only) then computes successfully.
func TestDeadlineAbortsQuicklyWithoutPoisoning(t *testing.T) {
	svc := New(Options{})
	torus := spec.GraphSpec{Family: "torus", Dim: 32} // 1024 vertices
	slow := Request{Graph: torus,
		Task: spec.TaskSpec{Kind: spec.KindOracleGraphMixing, Eps: 0.1, Lazy: true, DeadlineMS: 1}}

	start := time.Now()
	_, err := svc.Run(context.Background(), slow)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("1ms deadline on a 2304-vertex all-sources oracle did not abort")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline abort returned %v, want a context.DeadlineExceeded-tagged error", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadline abort took %v, want well under the full computation", elapsed)
	}
	if m := svc.Metrics(); m.CachedResults != 0 {
		t.Fatalf("failed run left %d entries in the result cache", m.CachedResults)
	}

	// Same request minus the deadline maps to the same result key; it must
	// compute from scratch and succeed — the abort poisoned nothing.
	ok := slow
	ok.Task.DeadlineMS = 0
	resp := mustRun(t, svc, ok)
	if resp.ResultHit || resp.Shared {
		t.Fatalf("post-abort request was served from a cache that should be empty: %+v", resp)
	}
	if resp.Result.(*TauResult).Tau <= 0 {
		t.Fatalf("post-abort computation returned τ=%d", resp.Result.(*TauResult).Tau)
	}

	// And an ample deadline changes nothing about a served result.
	warm := ok
	warm.Task.DeadlineMS = 60_000
	if again := mustRun(t, svc, warm); !again.ResultHit ||
		!reflect.DeepEqual(again.Result, resp.Result) {
		t.Fatal("ample-deadline repeat did not serve the memoized result")
	}
}

// TestDeadlineCancelsSweep: the per-source cooperative check in the sweep
// pool surfaces the context error for distributed sweeps too.
func TestDeadlineCancelsSweep(t *testing.T) {
	svc := New(Options{})
	req := Request{Graph: spec.GraphSpec{Family: "torus", Dim: 12},
		Task: spec.TaskSpec{Kind: spec.KindSweep, Mode: "mixing", Eps: 0.1, Seed: 1, Lazy: true, DeadlineMS: 1}}
	_, err := svc.Run(context.Background(), req)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sweep under a 1ms deadline returned %v, want DeadlineExceeded", err)
	}
	if m := svc.Metrics(); m.CachedResults != 0 {
		t.Fatal("cancelled sweep left a result-cache entry")
	}
}

// blockingResult is a result whose JSON encoding waits for release.
type blockingResult struct{ started, release chan struct{} }

func (b *blockingResult) MarshalJSON() ([]byte, error) {
	close(b.started)
	<-b.release
	return []byte(`"done"`), nil
}

// TestResultSizeEncodesOutsideLock: the bytes gauge encodes each fresh
// result, and that encode must not hold the cache lock, or every lookup —
// the hit path of every request — waits for it.
func TestResultSizeEncodesOutsideLock(t *testing.T) {
	c := newResultCache(4, &counters{})
	ctx := context.Background()
	if _, _, _, err := c.do(ctx, "other", func() (*cachedResult, error) { return &cachedResult{result: "x"}, nil }); err != nil {
		t.Fatal(err)
	}
	br := &blockingResult{started: make(chan struct{}), release: make(chan struct{})}
	inserted := make(chan error, 1)
	go func() {
		_, _, _, err := c.do(ctx, "slow", func() (*cachedResult, error) { return &cachedResult{result: br}, nil })
		inserted <- err
	}()
	<-br.started
	found := make(chan bool, 1)
	go func() {
		_, ok := c.lookup("other")
		found <- ok
	}()
	select {
	case ok := <-found:
		if !ok {
			t.Error("lookup of a cached key missed")
		}
	case <-time.After(5 * time.Second):
		t.Error("lookup blocked while another result was being encoded")
	}
	close(br.release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if got := c.ctr.resultBytes.Load(); got != int64(len(`"x"`)+len(`"done"`)) {
		t.Errorf("bytes gauge %d, want %d", got, len(`"x"`)+len(`"done"`))
	}
}

// TestResultBytesGauge: lmtd_result_cache_bytes reads the length of each
// cached result's JSON encoding.
func TestResultBytesGauge(t *testing.T) {
	for _, task := range []spec.TaskSpec{
		{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 5},
		{Kind: spec.KindEstimate, Lazy: true, Steps: 16, C: 3},
		{Kind: spec.KindSweep, Beta: 4, Eps: 0.1, Sample: 3, Seed: 2},
	} {
		svc := New(Options{})
		resp := mustRun(t, svc, Request{Graph: ringSpec, Task: task})
		b, err := json.Marshal(resp.Result)
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.Metrics().ResultBytes; got != int64(len(b)) {
			t.Errorf("%s: bytes gauge %d, want len(json.Marshal(result)) = %d", task.Kind, got, len(b))
		}
	}
}
