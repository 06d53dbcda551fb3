package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// refSweep computes the single-process reference sweep with exactly the
// config a peer derives from the task spec (see sweepConfig).
func refSweep(t *testing.T, beta, eps float64, seed int64, o core.SweepOptions) *core.MultiResult {
	t.Helper()
	g, err := graphSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.ApproxLocal, Beta: beta, Eps: eps}
	core.WithSeed(seed)(&cfg)
	want, err := core.GraphLocalMixingTimeSweep(g, cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestClusterSweepMatchesSingleProcess is the distributed-sweep determinism
// contract over real TCP: for every peer count, the coordinator's chunked
// fan-out assembles a MultiResult DeepEqual to the single-process sweep —
// all sources, a footnote-6 sample, and an explicit source subset.
func TestClusterSweepMatchesSingleProcess(t *testing.T) {
	for _, peers := range []int{1, 2, 3} {
		c := startCluster(t, peers)
		ctx := testCtx(t)

		want := refSweep(t, 4, 0.05, 5, core.SweepOptions{})
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5,
			Cluster: &spec.ClusterSpec{}})
		if err != nil {
			t.Fatalf("%d peers: %v", peers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-peer sweep differs from single-process:\n  cluster %+v\n  direct  %+v", peers, got, want)
		}

		got, err = c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5, Sample: 7})
		if err != nil {
			t.Fatalf("%d peers, sample: %v", peers, err)
		}
		want = refSweep(t, 4, 0.05, 5, core.SweepOptions{Sample: 7})
		if len(want.Sources) != 7 {
			t.Fatalf("sample reference drew %d sources, want 7", len(want.Sources))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-peer sampled sweep differs from single-process", peers)
		}

		srcs := []int{2, 9, 17}
		got, err = c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5, Sources: srcs})
		if err != nil {
			t.Fatalf("%d peers, explicit sources: %v", peers, err)
		}
		want = refSweep(t, 4, 0.05, 5, core.SweepOptions{Sources: srcs})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-peer explicit-source sweep differs from single-process", peers)
		}
	}
}

// TestClusterSweepCounters: the coordinator accounts dispatched chunks on
// the sweep.ChunkSize grid and records each peer's resident graph bytes
// (the full build — sweep peers never shard).
func TestClusterSweepCounters(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	if _, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	// n = 20 sources on the ChunkSize = 8 grid is exactly 3 chunks.
	if got := c.SweepChunks(); got != 3 {
		t.Fatalf("SweepChunks = %d, want 3", got)
	}
	g, err := graphSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := c.PeerResidentBytes()
	if len(res) != 2 {
		t.Fatalf("PeerResidentBytes reported %d peers, want 2", len(res))
	}
	for p, r := range res {
		if r != g.ResidentBytes() {
			t.Errorf("peer %d resident = %d, want the full build's %d", p, r, g.ResidentBytes())
		}
	}
}

// TestClusterSweepErrorPropagates: a sweep whose per-source runs cannot even
// configure (β < 1) fails with the peer's error and leaves the cluster
// serving.
func TestClusterSweepErrorPropagates(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	_, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 0.2, Eps: 0.05, Seed: 5})
	if err == nil || !strings.Contains(err.Error(), "β") {
		t.Fatalf("error %v, want a β validation failure", err)
	}
	if _, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5}); err != nil {
		t.Fatalf("cluster unusable after failed sweep: %v", err)
	}
}

// TestClusterShardResidentBytes: on a shardable family at an anchor size,
// each engine peer builds only its CSR shard, and the resident bytes it
// reports stay within 2× of full-build/P — while the sharded run's result
// remains DeepEqual to the single-process one.
func TestClusterShardResidentBytes(t *testing.T) {
	const peers = 3
	torus := spec.GraphSpec{Family: "torus", Rows: 64, Cols: 64}
	c := startCluster(t, peers)
	ctx := testCtx(t)
	got, err := c.Run(ctx, torus, spec.TaskSpec{Kind: spec.KindWalk, Source: 70, Steps: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g, err := torus.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TokenWalk(g, 70, 8, core.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	maskStats(got.(*core.TokenWalkResult).Stats)
	maskStats(want.Stats)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard-built walk differs from single-process:\n  cluster %+v\n  direct  %+v", got, want)
	}
	full := g.ResidentBytes()
	res := c.PeerResidentBytes()
	if len(res) != peers {
		t.Fatalf("PeerResidentBytes reported %d peers, want %d", len(res), peers)
	}
	for p, r := range res {
		if r <= 0 || r >= full {
			t.Errorf("peer %d resident = %d bytes, want in (0, %d)", p, r, full)
		}
		if cap := 2 * full / peers; r > cap {
			t.Errorf("peer %d resident = %d bytes, want ≤ 2·full/P = %d", p, r, cap)
		}
	}
}

// TestClusterSweepWarmPool: repeated sweeps of one spec reuse the peers'
// warm pools and graphs, and repeat results stay identical.
func TestClusterSweepWarmPool(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	var prev any
	for i := 0; i < 3; i++ {
		got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5, Sample: 9})
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if prev != nil && !reflect.DeepEqual(got, prev) {
			t.Fatalf("sweep %d result drifted", i)
		}
		prev = got
	}
	if got, want := c.SweepChunks(), int64(6); got != want {
		t.Fatalf("SweepChunks = %d, want %d (3 sweeps × 2 chunks of 9 sources)", got, want)
	}
}

// TestServiceClusterSweepSharesCache: a ClusterSpec-carrying sweep through
// the service matches the in-process run, and — Cluster being schedule-only
// — the identical plain request is served from the shared result cache.
func TestServiceClusterSweepSharesCache(t *testing.T) {
	c := startCluster(t, 2)
	svc := service.New(service.Options{Cluster: c})
	ctx := testCtx(t)
	req := service.Request{Graph: graphSpec,
		Task: spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5,
			Cluster: &spec.ClusterSpec{}}}
	resp, err := svc.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := refSweep(t, 4, 0.05, 5, core.SweepOptions{})
	if !reflect.DeepEqual(resp.Result, want) {
		t.Fatalf("service cluster sweep differs from direct sweep:\n  svc  %+v\n  core %+v", resp.Result, want)
	}
	req.Task.Cluster = nil
	resp2, err := svc.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.ResultHit {
		t.Fatal("in-process repeat of a cluster-computed sweep missed the result cache")
	}
	if m := svc.Metrics(); m.ClusterRuns != 1 {
		t.Fatalf("ClusterRuns = %d, want 1", m.ClusterRuns)
	}
}

// TestClusterSweepSinglePeerSpec: a sweep may name a single-peer cluster
// explicitly, while engine kinds still need two.
func TestClusterSweepSinglePeerSpec(t *testing.T) {
	c := startCluster(t, 2)
	ctx := testCtx(t)
	got, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindSweep, Beta: 4, Eps: 0.05, Seed: 5,
		Sources: []int{0, 11}, Cluster: &spec.ClusterSpec{Peers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := refSweep(t, 4, 0.05, 5, core.SweepOptions{Sources: []int{0, 11}})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("1-of-2-peer sweep differs from single-process")
	}
	if _, err := c.Run(ctx, graphSpec, spec.TaskSpec{Kind: spec.KindWalk, Steps: 4,
		Cluster: &spec.ClusterSpec{Peers: 1}}); err == nil || !strings.Contains(err.Error(), "peers") {
		t.Fatalf("1-peer walk: error %v, want a peer-count rejection", err)
	}
}

// TestResolveSourcesMatchesPool pins the exported resolution the
// coordinator partitions on to the one sweep.Pool uses internally: same
// explicit copy, same deterministic sample.
func TestResolveSourcesMatchesPool(t *testing.T) {
	all, err := sweep.ResolveSources(20, 5, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 || all[0] != 0 || all[19] != 19 {
		t.Fatalf("all-vertices resolution = %v", all)
	}
	s1, err := sweep.ResolveSources(20, 5, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sweep.ResolveSources(20, 5, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) || len(s1) != 7 {
		t.Fatalf("sample resolution not deterministic: %v vs %v", s1, s2)
	}
	if _, err := sweep.ResolveSources(20, 5, []int{25}, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}
