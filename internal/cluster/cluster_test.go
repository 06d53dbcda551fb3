package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
)

// graphSpec is the shared test graph: 4 cliques of 5 on a ring, n = 20 —
// small enough for fast rounds, lumpy enough that τ is nontrivial. The
// family shards, so every engine-kind test here also exercises the
// shard-built CSR path on the peers.
var graphSpec = spec.GraphSpec{Family: "ringcliques", Blocks: 4, K: 5}

// testCtx caps every cluster exchange in this suite with a deadline, so a
// wedged round or handshake fails the test instead of hanging it.
func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// startCluster stands up a coordinator on loopback with n Serve goroutines
// registered against it, and tears everything down (asserting clean peer
// exits) at test cleanup.
func startCluster(t testing.TB, n int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- Serve(context.Background(), c.Addr()) }()
	}
	t.Cleanup(func() {
		c.Close()
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Errorf("peer serve: %v", err)
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitForPeers(ctx, n); err != nil {
		t.Fatalf("peers never registered: %v", err)
	}
	return c
}

// maskStats zeroes the execution-artifact counters — buffer warmup and the
// wire itself — that legitimately differ between a cluster run and the
// single-process reference (see congest.MergeStats).
func maskStats(s *congest.Stats) {
	if s == nil {
		return
	}
	s.StepGrows, s.DeliverGrows = 0, 0
	s.WireBytes, s.FramesSent, s.FramesRecv = 0, 0, 0
}

// TestClusterRunMatchesSingleProcess is the end-to-end determinism
// contract over real TCP: a 3-peer run of each distributable kind returns
// results DeepEqual to the direct core call with the same seed.
func TestClusterRunMatchesSingleProcess(t *testing.T) {
	c := startCluster(t, 3)
	g, err := graphSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	t.Run("local", func(t *testing.T) {
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ApproxLocalMixingTime(g, 0, 4, 0.05, core.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		res := got.(*core.Result)
		if res.Stats.FramesSent == 0 || res.Stats.WireBytes == 0 {
			t.Fatalf("cluster run reports no wire traffic: %+v", res.Stats)
		}
		maskStats(res.Stats)
		maskStats(want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cluster local result differs from single-process:\n  cluster %+v\n  direct  %+v", got, want)
		}
	})

	t.Run("mixing", func(t *testing.T) {
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindMixing, Eps: 0.05, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MixingTime(g, 0, 0.05, core.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		maskStats(got.(*core.Result).Stats)
		maskStats(want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cluster mixing result differs from single-process:\n  cluster %+v\n  direct  %+v", got, want)
		}
	})

	t.Run("walk", func(t *testing.T) {
		// Source 13 lives in the last peer's shard, so the authoritative
		// result crosses the wire from a nonzero peer.
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 13, Steps: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.TokenWalk(g, 13, 16, core.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		maskStats(got.(*core.TokenWalkResult).Stats)
		maskStats(want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cluster walk result differs from single-process:\n  cluster %+v\n  direct  %+v", got, want)
		}
	})

	t.Run("peer-matrix", func(t *testing.T) {
		// The determinism contract over real TCP for every distributable
		// kind and peer subset: round control rides the frame headers, so
		// each peer count must reproduce the single-process run exactly.
		wantLocal, err := core.ApproxLocalMixingTime(g, 0, 4, 0.05, core.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		wantMixing, err := core.MixingTime(g, 0, 0.05, core.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		wantWalk, err := core.TokenWalk(g, 13, 16, core.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		maskStats(wantLocal.Stats)
		maskStats(wantMixing.Stats)
		maskStats(wantWalk.Stats)
		for _, peers := range []int{2, 3} {
			cl := &spec.ClusterSpec{Peers: peers}
			for kind, want := range map[string]any{"local": wantLocal, "mixing": wantMixing, "walk": wantWalk} {
				var task spec.TaskSpec
				switch kind {
				case "local":
					task = spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 5, Cluster: cl}
				case "mixing":
					task = spec.TaskSpec{Kind: spec.KindMixing, Eps: 0.05, Seed: 7, Cluster: cl}
				case "walk":
					task = spec.TaskSpec{Kind: spec.KindWalk, Source: 13, Steps: 16, Seed: 5, Cluster: cl}
				}
				got, err := c.Run(ctx, graphSpec, task)
				if err != nil {
					t.Fatalf("peers=%d %s: %v", peers, kind, err)
				}
				switch r := got.(type) {
				case *core.Result:
					maskStats(r.Stats)
				case *core.TokenWalkResult:
					maskStats(r.Stats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("peers=%d: %s result differs from single-process:\n  cluster %+v\n  direct  %+v",
						peers, kind, got, want)
				}
			}
		}
	})

	t.Run("peer-subset", func(t *testing.T) {
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 5,
			Cluster: &spec.ClusterSpec{Peers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ApproxLocalMixingTime(g, 0, 4, 0.05, core.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		maskStats(got.(*core.Result).Stats)
		maskStats(want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("2-of-3-peer result differs from single-process:\n  cluster %+v\n  direct  %+v", got, want)
		}
	})
}

// TestClusterSequentialJobs reuses one registered peer set across jobs: the
// per-job mesh teardown/rebuild must leave the control plane serving.
func TestClusterSequentialJobs(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	var prev *core.TokenWalkResult
	for i := 0; i < 3; i++ {
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 3, Steps: 8, Seed: 11})
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		r := got.(*core.TokenWalkResult)
		if prev != nil && !reflect.DeepEqual(r, prev) {
			t.Fatalf("job %d result drifted:\n  got  %+v\n  prev %+v", i, r, prev)
		}
		prev = r
	}
}

// TestClusterRejectsBadJobs: every rejection fires before (or cleanly
// instead of) a run, and the peer set survives to serve the next job.
func TestClusterRejectsBadJobs(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	for name, tc := range map[string]struct {
		graph spec.GraphSpec
		task  spec.TaskSpec
		want  string
	}{
		"kind":  {graphSpec, spec.TaskSpec{Kind: spec.KindEstimate, Steps: 4}, "does not distribute"},
		"churn": {graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Steps: 4, Churn: &spec.ChurnSpec{Model: "markov", Rate: 0.1}}, "churn"},
		"graph": {spec.GraphSpec{Family: "moebius"}, spec.TaskSpec{Kind: spec.KindWalk, Steps: 4}, "unknown graph family"},
		"width": {spec.GraphSpec{Family: "path", N: 20}, spec.TaskSpec{Kind: spec.KindWalk, Steps: 4,
			Cluster: &spec.ClusterSpec{Peers: 3}}, "peers"},
	} {
		_, err := c.Run(ctx, tc.graph, tc.task)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", name, err, tc.want)
		}
	}
	// The rejections must not have consumed the peers.
	if _, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 1, Steps: 4, Seed: 2}); err != nil {
		t.Fatalf("cluster unusable after rejected jobs: %v", err)
	}
}

// TestClusterRunErrorPropagates: a run that fails inside the engine on
// every peer (walk-length budget exhaustion via MaxRounds) surfaces the
// authoritative peer's error and leaves the cluster serving.
func TestClusterRunErrorPropagates(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	_, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 0, Steps: 1 << 20, Seed: 3, MaxRounds: 50})
	if err == nil || !strings.Contains(err.Error(), "round limit") {
		t.Fatalf("error %v, want a round-limit failure", err)
	}
	if _, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 0, Steps: 8, Seed: 3}); err != nil {
		t.Fatalf("cluster unusable after failed run: %v", err)
	}
}

// TestServiceClusterDispatch runs a ClusterSpec-carrying request through
// the service layer: the response must match the in-process run of the same
// request (the schedule-only contract), a repeat without the ClusterSpec
// must be served from the shared result cache, and the transport counters
// must surface in the service metrics.
func TestServiceClusterDispatch(t *testing.T) {
	c := startCluster(t, 3)
	svc := service.New(service.Options{Cluster: c})
	ctx := testCtx(t)
	req := service.Request{Graph: graphSpec,
		Task: spec.TaskSpec{Kind: spec.KindLocal, Beta: 4, Eps: 0.05, Seed: 5,
			Cluster: &spec.ClusterSpec{}}}
	resp, err := svc.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ApproxLocalMixingTime(g, 0, 4, 0.05, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Result.(*core.Result)
	maskStats(got.Stats)
	maskStats(want.Stats)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service cluster result differs from direct core call:\n  svc  %+v\n  core %+v", got, want)
	}

	// Cluster is schedule-only: the identical request computed in-process
	// shares the memoized result — no second run anywhere.
	req.Task.Cluster = nil
	resp2, err := svc.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.ResultHit {
		t.Fatal("in-process repeat of a cluster-computed request missed the result cache")
	}
	m := svc.Metrics()
	if m.ClusterRuns != 1 {
		t.Fatalf("ClusterRuns = %d, want 1", m.ClusterRuns)
	}
	if m.WireBytes == 0 || m.FramesSent == 0 || m.FramesSent != m.FramesRecv {
		t.Fatalf("transport counters not accumulated: %+v", m)
	}

	// Without an attached cluster the field is an invalid-request error.
	lone := service.New(service.Options{})
	req.Task.Cluster = &spec.ClusterSpec{}
	req.Task.Seed = 6 // dodge the shared result-cache key
	if _, err := lone.Run(ctx, req); err == nil || !strings.Contains(err.Error(), "no peer cluster") {
		t.Fatalf("cluster request without a cluster: %v", err)
	}
}

// TestClusterCancellation: a context canceled before Run aborts the job
// without wedging the coordinator.
func TestClusterCancellation(t *testing.T) {
	c := startCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 0, Steps: 1 << 16, Seed: 3})
	if err == nil {
		t.Fatal("canceled run returned a result")
	}
}

// longWalk is a walk of 2^18 rounds — several seconds over localhost TCP,
// so a test can act on it while it runs.
var longWalk = spec.TaskSpec{Kind: spec.KindWalk, Source: 0, Steps: 1 << 18, Seed: 3}

// checkServesWalk runs a short walk on c and requires the single-process
// answer: the peers survived whatever the test did to the previous job.
func checkServesWalk(t *testing.T, ctx context.Context, c *Coordinator) {
	t.Helper()
	got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 13, Steps: 16, Seed: 5})
	if err != nil {
		t.Fatalf("cluster unusable after the aborted job: %v", err)
	}
	g, err := graphSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TokenWalk(g, 13, 16, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	maskStats(got.(*core.TokenWalkResult).Stats)
	maskStats(want.Stats)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk after the aborted job differs from single-process:\n  cluster %+v\n  direct  %+v", got, want)
	}
}

// awaitMesh installs a connection hook that reports the mesh connections
// of the next job (registration is over, so only they pass through it).
// The hook is removed at test cleanup.
func awaitMesh(t *testing.T) <-chan net.Conn {
	// Room for all six connections of a 3-peer mesh and then some; the
	// hook drops what does not fit, so it never blocks a dial or accept.
	mesh := make(chan net.Conn, 8)
	setTestConnWrap(func(conn net.Conn) net.Conn {
		select {
		case mesh <- conn:
		default:
		}
		return conn
	})
	t.Cleanup(func() { setTestConnWrap(nil) })
	return mesh
}

// TestClusterCancellationMidRun: canceling a running job sends every peer
// an abort, which closes its mesh under the engine, so every peer's next
// Exchange fails and the job returns within a round or so, long before
// the walk could finish. The peers stay registered and serve the next job
// exactly.
func TestClusterCancellationMidRun(t *testing.T) {
	c := startCluster(t, 2)
	base := testCtx(t)
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	mesh := awaitMesh(t)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, graphSpec, longWalk)
		done <- err
	}()
	<-mesh
	time.Sleep(20 * time.Millisecond) // let rounds flow
	cancel()
	start := time.Now()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled walk returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the job returned %v after the cancel: the peers ran on", d)
	}
	if c.RoundWaitNs() == 0 {
		t.Fatal("the peers never exchanged a frame: the cancel landed before the run started")
	}
	checkServesWalk(t, base, c)
}

// TestClusterMeshLinkKilled: a data-plane link dying mid-run fails the
// Exchange at both of its ends; each failing peer closes its whole mesh,
// so the third peer fails too, and the coordinator returns an error
// instead of hanging. The peers then serve the next job exactly.
func TestClusterMeshLinkKilled(t *testing.T) {
	c := startCluster(t, 3)
	ctx := testCtx(t)
	mesh := awaitMesh(t)
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, graphSpec, longWalk)
		done <- err
	}()
	victim := <-mesh
	time.Sleep(100 * time.Millisecond) // let rounds flow
	victim.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("walk over a killed mesh link returned a result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after a mesh link died")
	}
	checkServesWalk(t, ctx, c)
}

// errInjected is the failure failPreamble injects.
var errInjected = errors.New("injected preamble failure")

// failPreamble fails one peer's mesh preamble write, so that peer fails
// mesh setup on its first dial (to peer 0) and never dials the peers in
// between. The dropped connection reaches the wire a second after its
// Close: peer 0, blocked reading the preamble that never came, fails only
// well after the injected peer has reported, so the job's error has one
// possible author.
type failPreamble struct {
	net.Conn
	victim int
	failed bool
}

func (f *failPreamble) Write(p []byte) (int, error) {
	if len(p) == 4 && int(binary.LittleEndian.Uint32(p)) == f.victim {
		f.failed = true
		return 0, errInjected
	}
	return f.Conn.Write(p)
}

func (f *failPreamble) Close() error {
	if f.failed {
		time.AfterFunc(time.Second, func() { f.Conn.Close() })
		return nil
	}
	return f.Conn.Close()
}

// TestClusterMeshSetupFailureAborts: peer 2 fails mesh setup before it
// dials peer 1, which would otherwise sit in Accept for meshSetupBudget.
// The failure must abort the job at once, the error must name peer 2 (not a
// peer the abort failed), and the same peers must then serve the next job
// exactly.
func TestClusterMeshSetupFailureAborts(t *testing.T) {
	c := startCluster(t, 3)
	ctx := testCtx(t)
	setTestConnWrap(func(conn net.Conn) net.Conn { return &failPreamble{Conn: conn, victim: 2} })
	start := time.Now()
	_, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Source: 0, Steps: 16, Seed: 5})
	took := time.Since(start)
	setTestConnWrap(nil)
	if err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("error %v, want the injected preamble failure", err)
	}
	if !strings.HasPrefix(err.Error(), "cluster: peer 2: ") {
		t.Errorf("error %q does not name peer 2, the peer that failed", err)
	}
	if n := strings.Count(err.Error(), "cluster: peer 2: "); n != 1 {
		t.Errorf("error %q names peer 2 %d times, want once", err, n)
	}
	// The injected connection stays open for 1 s after the failed write;
	// the abort must not wait for it to close.
	if took > 500*time.Millisecond {
		t.Fatalf("the job returned %v after the setup failure: a peer waited on a mesh accept or preamble", took)
	}
	checkServesWalk(t, ctx, c)
}
